//go:build !race

package main

// raceEnabled mirrors the -race build flag into test code: the detector
// slows every goroutine unevenly, so a test that bounds a scheduling
// outcome loosens the bound under it.
const raceEnabled = false
