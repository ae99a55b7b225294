package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not all-zero: %v", h)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Errorf("min/max = %d/%d, want 1234/1234", h.Min(), h.Max())
	}
	if h.Mean() != 1234 {
		t.Errorf("Mean = %f", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Errorf("Quantile(%f) = %d, want 1234", q, got)
		}
	}
}

func TestHistogramNegativeClampedToZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-10)
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var samples []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 10000)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.05 {
			t.Errorf("Quantile(%v) = %d, exact %d, rel err %.3f > 5%%", q, got, exact, relErr)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileWithinMinMax(t *testing.T) {
	f := func(raw []uint32, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		q := float64(qRaw) / 255
		v := h.Quantile(q)
		return v >= h.Min() && v <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMergeEquivalentToCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() ||
		a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merge mismatch: %v vs %v", a, all)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%v): merged %d vs combined %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Record(50)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("reset did not clear: %v", h)
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Errorf("post-reset record broken: %v", h)
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw)
		b := bucketOf(v)
		lo := bucketLow(b)
		hi := bucketLow(b + 1)
		return lo <= v && (v < hi || hi <= lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// floatBucketOf is bucketOf as a float interpolation within the octave,
// with the top bit found one shift at a time: the reference the bit math
// is held to.
func floatBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	lz := 0
	for x := uint64(v); x&(1<<63) == 0; x <<= 1 {
		lz++
	}
	oct := 63 - lz
	base := int64(1) << uint(oct)
	frac := float64(v-base) / float64(base)
	return 1 + oct*bucketsPerOctave + int(frac*bucketsPerOctave)
}

// TestBucketOfMatchesFloat: the shift gives the bucket the float
// interpolation gives, for every sample below 2^20 and for a million
// seeded draws over the whole int64 range, negatives included.
func TestBucketOfMatchesFloat(t *testing.T) {
	for v := int64(0); v < 1<<20; v++ {
		if got, want := bucketOf(v), floatBucketOf(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1000000 {
		v := int64(rng.Uint64())
		if got, want := bucketOf(v), floatBucketOf(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Value = %d, want 42", c.Value())
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("rdma", 3900)
	b.Add("tlb", 100)
	b.Add("rdma", 100)
	b.AddOp()
	b.AddOp()
	if got := b.Component("rdma"); got != 4000 {
		t.Errorf("rdma = %d", got)
	}
	if got := b.PerOp("rdma"); got != 2000 {
		t.Errorf("PerOp(rdma) = %f", got)
	}
	if got := b.Component("tlb"); got != 100 {
		t.Errorf("tlb = %d", got)
	}
	comps := b.Components()
	if len(comps) != 2 || comps[0] != "rdma" || comps[1] != "tlb" {
		t.Errorf("Components = %v", comps)
	}
}

func TestTimeSeries(t *testing.T) {
	var s TimeSeries
	s.Add(0, 1.0)
	s.Add(10, 2.0)
	s.Add(20, 0.5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.T[1] != 10 || s.V[1] != 2.0 {
		t.Errorf("sample 1 = (%d, %f), want (10, 2)", s.T[1], s.V[1])
	}
	if s.Max() != 2.0 {
		t.Errorf("max = %f", s.Max())
	}
	if (&TimeSeries{}).Max() != 0 {
		t.Error("empty series has a max")
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	if r := m.Rate(1e9, 100); r != 100 {
		t.Errorf("first window rate = %f, want 100", r)
	}
	if r := m.Rate(3e9, 500); r != 200 {
		t.Errorf("second window rate = %f, want 200", r)
	}
	if r := m.Rate(3e9, 600); r != 0 {
		t.Errorf("zero-width window rate = %f, want 0", r)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xffff))
	}
}

func TestSpans(t *testing.T) {
	var s Spans
	if s.depth > 0 || s.totalNs != 0 || s.Count() != 0 {
		t.Fatal("zero Spans not empty")
	}
	s.Enter(100)
	if s.depth == 0 || s.Count() != 1 {
		t.Fatal("span not open after Enter")
	}
	if got := s.TotalAt(150); got != 50 {
		t.Fatalf("TotalAt(150) = %d, want 50", got)
	}
	// Nested entry: only the outermost pair moves the clock.
	s.Enter(120)
	s.Exit(130)
	if s.totalNs != 0 {
		t.Fatalf("inner Exit accrued time: %d", s.totalNs)
	}
	s.Exit(200)
	if s.depth > 0 || s.totalNs != 100 {
		t.Fatalf("after close: depth=%d total=%d", s.depth, s.totalNs)
	}
	// Second span accumulates.
	s.Enter(300)
	s.Exit(340)
	if s.totalNs != 140 || s.Count() != 2 {
		t.Fatalf("total=%d count=%d, want 140/2", s.totalNs, s.Count())
	}
	if got := s.TotalAt(999); got != 140 {
		t.Fatalf("TotalAt with no open span = %d, want 140", got)
	}
}

func TestSpansExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Exit did not panic")
		}
	}()
	var s Spans
	s.Exit(10)
}
