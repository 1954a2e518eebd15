package main

import "example.com/knobguard/internal/fix"

func main() {
	_ = fix.New(fix.Config{Cmd: 1}, fix.Spec{})
}
