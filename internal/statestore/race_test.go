//go:build race

package statestore

// raceEnabled: the race detector's shadow memory and instrumentation change
// heap sizes and object counts, so heap-layout tests only run without it.
const raceEnabled = true
