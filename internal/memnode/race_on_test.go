//go:build race

package memnode

const raceEnabled = true
