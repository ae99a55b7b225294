// Package stats provides the measurement primitives used by the far-memory
// experiments: latency histograms with percentile queries, counters, rate
// meters, time series, and per-component latency breakdowns.
//
// Histograms are log-bucketed (HDR-style) with a fixed ~1.5 % relative
// error, so recording is O(1) and memory use is bounded regardless of how
// many samples an experiment produces.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// octaveBits controls histogram resolution: each power of two is split
// into bucketsPerOctave = 2^octaveBits sub-buckets, giving a relative
// error of about 2^(1/64) - 1 ≈ 1.1 %.
const (
	octaveBits       = 6
	bucketsPerOctave = 1 << octaveBits
)

// Histogram records non-negative int64 samples (typically latencies in
// nanoseconds) in logarithmic buckets.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	// 1 + floor(log2(v) * bucketsPerOctave): the octave from the top bit,
	// and the step within it, floor((v-base) * bucketsPerOctave / base),
	// as a shift, exact because base and bucketsPerOctave are powers of
	// two.
	oct := 63 - bits.LeadingZeros64(uint64(v))
	rem := uint64(v) - 1<<oct
	var sub uint64
	if oct >= octaveBits {
		sub = rem >> (oct - octaveBits)
	} else {
		sub = rem << (octaveBits - oct)
	}
	return 1 + oct*bucketsPerOctave + int(sub)
}

func bucketLow(b int) int64 {
	if b <= 0 {
		return 0
	}
	b--
	oct := b / bucketsPerOctave
	sub := b % bucketsPerOctave
	base := int64(1) << uint(oct)
	return base + int64(float64(base)*float64(sub)/bucketsPerOctave)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		nc := make([]uint64, b+1)
		copy(nc, h.counts)
		h.counts = nc
	}
	h.counts[b]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (q in [0,1]). The
// exact Min/Max are returned at the extremes.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			v := bucketLow(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P90, P99, P999 are convenience percentile accessors.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P90() int64  { return h.Quantile(0.90) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		nc := make([]uint64, len(other.counts))
		copy(nc, h.counts)
		h.counts = nc
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.n, h.Mean(), h.P50(), h.P99(), h.max)
}

// Counter is a monotonically increasing event count.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Breakdown accumulates virtual time per named component of an operation,
// used for the paper's fault-handler latency breakdowns (Figs 6 and 16).
type Breakdown struct {
	order []string
	ns    map[string]int64
	ops   uint64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{ns: make(map[string]int64)}
}

// Add charges d nanoseconds to component name.
func (b *Breakdown) Add(name string, d int64) {
	if _, ok := b.ns[name]; !ok {
		b.order = append(b.order, name)
	}
	b.ns[name] += d
}

// AddOp counts one completed operation (used to compute per-op averages).
func (b *Breakdown) AddOp() { b.ops++ }

// Component returns the accumulated time for one component.
func (b *Breakdown) Component(name string) int64 { return b.ns[name] }

// PerOp returns the average nanoseconds per operation for one component.
func (b *Breakdown) PerOp(name string) float64 {
	if b.ops == 0 {
		return 0
	}
	return float64(b.ns[name]) / float64(b.ops)
}

// Components returns the component names in first-use order.
func (b *Breakdown) Components() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// TimeSeries records (t, value) samples, e.g. throughput over a run for the
// GUPS phase-change timeline (Fig 11).
type TimeSeries struct {
	T []int64
	V []float64
}

// Add appends a sample. Times should be non-decreasing.
func (s *TimeSeries) Add(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *TimeSeries) Len() int { return len(s.T) }

// Max returns the largest value, or 0 when empty.
func (s *TimeSeries) Max() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Meter converts an operation count over a virtual-time window into a rate.
type Meter struct {
	lastT   int64
	lastOps uint64
}

// Rate returns operations per second between the previous call and (t,
// ops), then advances the window.
func (m *Meter) Rate(t int64, ops uint64) float64 {
	dt := t - m.lastT
	dops := ops - m.lastOps
	m.lastT, m.lastOps = t, ops
	if dt <= 0 {
		return 0
	}
	return float64(dops) / (float64(dt) / 1e9)
}

// Spans accumulates total time spent inside a (possibly re-entered)
// condition — e.g. how long fault paths sat in degraded mode. Enter/Exit
// calls may nest across concurrent simulated procs: the span is open
// while the depth is nonzero, and only the outermost Enter/Exit pair
// moves the clock. Times are virtual-time int64 nanoseconds, so Spans is
// simulation-side state like Counter and Histogram.
type Spans struct {
	depth   int
	openAt  int64
	totalNs int64
	count   uint64
}

// Enter marks one waiter entering the condition at time t. The first
// waiter opens a span.
func (s *Spans) Enter(t int64) {
	if s.depth == 0 {
		s.openAt = t
		s.count++
	}
	s.depth++
}

// Exit marks one waiter leaving at time t. The last waiter closes the
// span and accrues its duration.
func (s *Spans) Exit(t int64) {
	if s.depth <= 0 {
		panic("stats: Spans.Exit without matching Enter")
	}
	s.depth--
	if s.depth == 0 {
		s.totalNs += t - s.openAt
	}
}

// Count returns how many distinct spans have been opened.
func (s *Spans) Count() uint64 { return s.count }

// TotalAt returns accumulated span time as of t, including the still-open
// span if any.
func (s *Spans) TotalAt(t int64) int64 {
	if s.depth > 0 && t > s.openAt {
		return s.totalNs + (t - s.openAt)
	}
	return s.totalNs
}
