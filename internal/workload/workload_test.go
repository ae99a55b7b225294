package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mage/internal/core"
	"mage/internal/sim"
)

func TestZipfianBoundsAndSkew(t *testing.T) {
	z := NewZipfian(10000, 0.99)
	rng := rand.New(rand.NewSource(1))
	counts := map[int64]int{}
	for i := 0; i < 100000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Key 0 must be by far the most popular.
	if counts[0] < 5*counts[100] {
		t.Errorf("skew too weak: count[0]=%d count[100]=%d", counts[0], counts[100])
	}
	// Roughly: P(0) ≈ 1/zetan ≈ 10% for N=10k, theta=0.99.
	frac := float64(counts[0]) / 100000
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("P(hottest) = %.3f, expected ≈0.10", frac)
	}
}

func TestZipfianInvalidParamsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipfian(0, 0.99) },
		func() { NewZipfian(10, 0) },
		func() { NewZipfian(10, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	s := NewScrambled(1<<16, 0.99)
	rng := rand.New(rand.NewSource(2))
	// The two hottest scrambled keys must not be adjacent: scrambling
	// destroys locality.
	counts := map[int64]int{}
	for i := 0; i < 50000; i++ {
		counts[s.Next(rng)]++
	}
	var top1, top2 int64
	for k, c := range counts {
		if c > counts[top1] {
			top1, top2 = k, top1
		} else if c > counts[top2] {
			top2 = k
		}
	}
	if d := top1 - top2; d > -64 && d < 64 {
		t.Errorf("hottest keys %d and %d adjacent; scrambling broken", top1, top2)
	}
}

func TestScrambledInRangeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int64(nRaw) + 2
		s := NewScrambled(n, 0.7)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			k := s.Next(rng)
			if k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKroneckerStructure(t *testing.T) {
	g := GenerateKronecker(DefaultKronecker(10, 8, 7))
	if g.NumVertices != 1024 {
		t.Fatalf("vertices = %d", g.NumVertices)
	}
	if g.NumEdges() != 8*1024 {
		t.Fatalf("edges = %d, want 8192", g.NumEdges())
	}
	// CSR consistency.
	if g.Offsets[0] != 0 {
		t.Error("Offsets[0] != 0")
	}
	for v := 0; v < g.NumVertices; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			t.Fatalf("offsets not monotone at %d", v)
		}
	}
	for _, nb := range g.Neighbors {
		if nb < 0 || int(nb) >= g.NumVertices {
			t.Fatalf("neighbor %d out of range", nb)
		}
	}
	// Kronecker graphs are heavy-tailed: the max degree should dwarf the
	// mean degree (8).
	maxDeg := 0
	for v := int32(0); int(v) < g.NumVertices; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 40 {
		t.Errorf("max degree %d; expected a heavy tail (>5x mean)", maxDeg)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := GenerateKronecker(DefaultKronecker(8, 4, 3))
	b := GenerateKronecker(DefaultKronecker(8, 4, 3))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatalf("graphs diverge at edge %d", i)
		}
	}
}

// drain pulls all accesses from a stream, bounding runaway generators.
func drain(t *testing.T, s core.AccessStream, limit int) []core.Access {
	t.Helper()
	var out []core.Access
	for len(out) < limit {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
	t.Fatalf("stream did not terminate within %d accesses", limit)
	return nil
}

func checkInRange(t *testing.T, name string, accs []core.Access, numPages uint64) {
	t.Helper()
	for i, a := range accs {
		if !a.Skip && a.Page >= numPages {
			t.Fatalf("%s: access %d to page %d beyond WSS %d", name, i, a.Page, numPages)
		}
	}
}

func TestGapBSStreams(t *testing.T) {
	w := NewGapBS(GapBSParams{Scale: 10, EdgeFactor: 4, Iterations: 2, BytesPerVertex: 64, Seed: 1})
	streams := w.Streams(4, 0)
	if len(streams) != 4 {
		t.Fatalf("streams = %d", len(streams))
	}
	total := 0
	for i, s := range streams {
		accs := drain(t, s, 1<<20)
		checkInRange(t, "gapbs", accs, w.NumPages())
		if len(accs) == 0 {
			t.Errorf("thread %d empty", i)
		}
		total += len(accs)
		// Must contain writes (score updates).
		hasWrite := false
		for _, a := range accs {
			if a.Write {
				hasWrite = true
				break
			}
		}
		if !hasWrite {
			t.Errorf("thread %d has no writes", i)
		}
	}
	// Roughly 2 accesses per edge per iteration, plus per-vertex ones.
	if total < int(w.Graph().NumEdges()) {
		t.Errorf("total accesses %d < edges %d", total, w.Graph().NumEdges())
	}
}

func TestXSBenchStreams(t *testing.T) {
	p := DefaultXSBench()
	p.LookupsPerThread = 200
	w := NewXSBench(p)
	streams := w.Streams(3, 5)
	for _, s := range streams {
		accs := drain(t, s, 1<<20)
		checkInRange(t, "xsbench", accs, w.NumPages())
		wantPerLookup := w.AccessesPerLookup()
		if len(accs) != 200*wantPerLookup {
			t.Errorf("accesses = %d, want %d", len(accs), 200*wantPerLookup)
		}
	}
}

func TestSeqScanStreamsAreSequentialAndSharded(t *testing.T) {
	p := SeqScanParams{Pages: 1000, Iterations: 2, ComputePerPage: 100}
	w := NewSeqScan(p)
	streams := w.Streams(4, 0)
	seen := map[uint64]int{}
	for i, s := range streams {
		accs := drain(t, s, 10000)
		lo, hi := shard(1000, 4, i)
		if len(accs) != 2*(hi-lo) {
			t.Errorf("thread %d: %d accesses, want %d", i, len(accs), 2*(hi-lo))
		}
		prev := int64(-2)
		for _, a := range accs {
			seen[a.Page]++
			if int64(a.Page) != prev+1 && int64(a.Page) != int64(lo) {
				t.Errorf("thread %d: non-sequential jump to %d after %d", i, a.Page, prev)
				break
			}
			prev = int64(a.Page)
			if a.Page < uint64(lo) || a.Page >= uint64(hi) {
				t.Errorf("thread %d: page %d outside shard [%d,%d)", i, a.Page, lo, hi)
				break
			}
		}
	}
	if len(seen) != 1000 {
		t.Errorf("%d distinct pages touched, want 1000", len(seen))
	}
}

func TestGUPSPhaseChange(t *testing.T) {
	p := GUPSParams{
		Pages: 1000, UpdatesPerThread: 1000, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.9, ComputePerUpdate: 50,
	}
	w := NewGUPS(p)
	s := w.Streams(1, 3)[0]
	accs := drain(t, s, 2000)
	if len(accs) != 1000 {
		t.Fatalf("accesses = %d", len(accs))
	}
	split := uint64(800) // region A = first 800 pages
	for i, a := range accs {
		if !a.Write {
			t.Fatal("GUPS accesses must be writes")
		}
		if i < 500 && a.Page >= split {
			t.Fatalf("access %d (phase 1) hit region B page %d", i, a.Page)
		}
		if i >= 500 && a.Page < split {
			t.Fatalf("access %d (phase 2) hit region A page %d", i, a.Page)
		}
	}
}

func TestGUPSZipfSkewOnPages(t *testing.T) {
	p := DefaultGUPS()
	w := NewGUPS(p)
	s := w.Streams(1, 7)[0]
	counts := map[uint64]int{}
	n := 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		counts[a.Page]++
		n++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(n) / float64(len(counts))
	if float64(maxC) < 4*mean {
		t.Errorf("hottest page %d vs mean %.1f: Zipf skew not visible", maxC, mean)
	}
}

// TestMetisStreamSetsOwnTheirBarriers builds two stream sets from one
// Metis, of 2 and then 4 threads, before running either: each set waits
// on a phase barrier of its own, so each runs to completion on a fresh
// node and passes the map→reduce switch, and each reports its own
// switch, which running the other set leaves alone. With one barrier per
// workload, the 2-thread set parked on the later call's 4-party barrier
// and its run never ended.
func TestMetisStreamSetsOwnTheirBarriers(t *testing.T) {
	w := NewMetis(MetisParams{
		InputPages: 600, IntermediatePages: 400, OutputPages: 80,
		EmitsPerInputPage: 1, MapCompute: 400, ReduceCompute: 300,
	})
	sets := [][]core.AccessStream{w.Streams(2, 1), w.Streams(4, 1)}
	switches := make([]sim.Time, len(sets))
	for i, set := range sets {
		if at := PhaseSwitchAt(set); at != 0 {
			t.Fatalf("%d threads: phase switch at %v before the set ran", len(set), at)
		}
		res := tinyNode(t, "magelib", len(set), w.NumPages(), 0.6).Run(set)
		switches[i] = PhaseSwitchAt(set)
		if switches[i] <= 0 || switches[i] >= res.Makespan {
			t.Errorf("%d threads: phase switch at %v, makespan %v", len(set), switches[i], res.Makespan)
		}
	}
	if switches[0] == switches[1] {
		t.Errorf("both sets switched at %v", switches[0])
	}
	if at := PhaseSwitchAt(sets[0]); at != switches[0] {
		t.Errorf("running the 4-thread set moved the 2-thread set's switch from %v to %v", switches[0], at)
	}
}

func TestMemcachedRequestShape(t *testing.T) {
	w := NewMemcached(DefaultMemcached())
	rng := rand.New(rand.NewSource(4))
	zipf := NewScrambled(w.p.Keys, w.p.Theta)
	sets := 0
	const reqs = 20000
	for i := 0; i < reqs; i++ {
		accs := w.requestAccesses(nil, rng, zipf)
		if len(accs) != 2 {
			t.Fatalf("request has %d accesses", len(accs))
		}
		if accs[0].Page >= w.index.base+w.index.pages {
			t.Fatal("first access must hit the index region")
		}
		if accs[1].Page < w.slab.base {
			t.Fatal("second access must hit the slab region")
		}
		if accs[1].Write {
			sets++
		}
	}
	frac := float64(sets) / reqs
	if math.Abs(frac-0.002) > 0.002 {
		t.Errorf("SET fraction %.4f, want ≈0.002", frac)
	}
}

func TestTable1CatalogComplete(t *testing.T) {
	entries := Table1()
	if len(entries) != 6 {
		t.Fatalf("Table 1 has %d entries, want 6", len(entries))
	}
	apps := map[string]bool{}
	for _, e := range entries {
		apps[e.Application] = true
		if e.Category == "" || e.Dataset == "" || e.Characteristic == "" {
			t.Errorf("incomplete entry %+v", e)
		}
	}
	for _, want := range []string{"GapBS", "XSBench", "Sequential Scan", "Gups", "Metis", "Memcached"} {
		if !apps[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestWorkloadsImplementInterface(t *testing.T) {
	ws := []Workload{
		NewGapBS(GapBSParams{Scale: 8, EdgeFactor: 4, Iterations: 1, BytesPerVertex: 64, Seed: 1}),
		NewXSBench(DefaultXSBench()),
		NewSeqScan(DefaultSeqScan()),
		NewGUPS(DefaultGUPS()),
		NewMetis(DefaultMetis()),
	}
	for _, w := range ws {
		if w.Name() == "" || w.NumPages() == 0 {
			t.Errorf("%T: bad Name/NumPages", w)
		}
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	var l layout
	a := l.add(10000)
	b := l.add(5000)
	c := l.addPages(7)
	if a.base+a.pages != b.base || b.base+b.pages != c.base {
		t.Errorf("regions not consecutive: %+v %+v %+v", a, b, c)
	}
	if a.pages != 3 || b.pages != 2 || c.pages != 7 {
		t.Errorf("page counts wrong: %d %d %d", a.pages, b.pages, c.pages)
	}
}

func TestShardCoversRange(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw) + 1
		tt := int(tRaw)%8 + 1
		covered := 0
		prevHi := 0
		for i := 0; i < tt; i++ {
			lo, hi := shard(n, tt, i)
			if lo != prevHi {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
