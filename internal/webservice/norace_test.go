//go:build !race

package webservice

const raceEnabled = false
