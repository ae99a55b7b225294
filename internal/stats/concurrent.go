package stats

import (
	"math"
	"sync" //magevet:ok ConcurrentHistogram serves wall-clock network benchmarks (memnode-bench), not virtual-time simulation code
)

// Clone returns an independent deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// ConcurrentHistogram is a mutex-guarded Histogram for wall-clock
// callers — the real-network benchmarks record latencies in a plain
// Histogram per goroutine and merge them in here. Simulation code must
// keep using the plain (deterministic, single-threaded) Histogram.
type ConcurrentHistogram struct {
	mu sync.Mutex // guards a histogram shared by real benchmark goroutines
	h  Histogram
}

// NewConcurrentHistogram returns an empty concurrent histogram.
func NewConcurrentHistogram() *ConcurrentHistogram {
	return &ConcurrentHistogram{h: Histogram{min: math.MaxInt64}}
}

// Merge adds all samples of other (a plain Histogram) into c.
func (c *ConcurrentHistogram) Merge(other *Histogram) {
	c.mu.Lock()
	c.h.Merge(other)
	c.mu.Unlock()
}

// Snapshot returns a consistent copy of the current state.
func (c *ConcurrentHistogram) Snapshot() *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.Clone()
}
