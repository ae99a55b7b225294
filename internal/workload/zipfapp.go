package workload

import (
	"mage/internal/core"
	"mage/internal/sim"
)

// ZipfParams sizes the closed-loop skewed-random workload: every thread
// issues scrambled-Zipfian page accesses over a shared buffer as fast as
// its compute allows. It is the simplest member of the paper's "random"
// access-pattern class (GapBS/XSBench without their structure) and the
// canonical noisy neighbour for the co-location experiment: a hot set
// that fits locally plus a long tail that churns the eviction pipeline.
type ZipfParams struct {
	// Pages is the buffer size in pages.
	Pages uint64
	// AccessesPerThread is the closed-loop run length per thread.
	AccessesPerThread int
	// Theta is the Zipfian skew (YCSB-style, in (0,1)).
	Theta float64
	// WriteFraction is the probability an access dirties its page, which
	// is what makes this tenant's evictions cost writebacks.
	WriteFraction float64
	// ComputePerAccess is the CPU work attributed to each access.
	ComputePerAccess sim.Time
}

// Zipf is the closed-loop skewed-random workload.
type Zipf struct {
	p   ZipfParams
	buf region
}

// NewZipf lays out the buffer.
func NewZipf(p ZipfParams) *Zipf {
	var l layout
	w := &Zipf{p: p}
	w.buf = l.addPages(p.Pages)
	return w
}

// Name implements Workload.
func (w *Zipf) Name() string { return "zipf" }

// NumPages implements Workload.
func (w *Zipf) NumPages() uint64 { return w.buf.pages }

// Streams implements Workload: each thread draws AccessesPerThread pages
// from an independent scrambled-Zipfian generator.
func (w *Zipf) Streams(threads int, seed int64) []core.AccessStream {
	out := make([]core.AccessStream, threads)
	for t := 0; t < threads; t++ {
		rng := threadRNG(seed, t, 7919)
		zipf := NewScrambled(int64(w.buf.pages), w.p.Theta)
		left := w.p.AccessesPerThread
		out[t] = core.FuncStream(func() (core.Access, bool) {
			if left <= 0 {
				return core.Access{}, false
			}
			left--
			pg := w.buf.pageIdx(uint64(zipf.Next(rng)))
			write := rng.Float64() < w.p.WriteFraction
			return core.Access{Page: pg, Write: write, Compute: w.p.ComputePerAccess}, true
		})
	}
	return out
}
