//go:build race || !unix

package upager

// mapArena allocates the frames on the Go heap. A race build takes this
// twin on every platform: the race runtime checks only accesses that
// fall inside the heap, and a mapped arena would hide every frame byte
// from it. Off unix there is no anonymous mapping to take.
func mapArena(n int64) ([]byte, error) { return make([]byte, n), nil }

// unmapArena leaves the arena to the collector, which frees it once the
// pager lets go of it.
func unmapArena([]byte) {}
