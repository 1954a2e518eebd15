//go:build !race

package statestore

const raceEnabled = false
