package main

import "example.com/peerguard/internal/fix"

var shape fix.Shape = fix.Square{Side: 2}

func main() {
	fix.Used()
	_ = shape
}
