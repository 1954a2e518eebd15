//go:build race

package webservice

// raceEnabled: the race detector's instrumentation moves some stack buffers
// to the heap, so allocation counts are only checked without it.
const raceEnabled = true
