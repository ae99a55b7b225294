//go:build !race

package memnode

// raceEnabled mirrors the -race build flag into test code: the
// detector slows the server goroutine ~10x and makes sync.Pool drop
// items, so tests that assert on scheduling outcomes or allocation
// counts skip under it.
const raceEnabled = false
