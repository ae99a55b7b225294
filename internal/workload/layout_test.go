package workload

import (
	"testing"

	"mage/internal/core"
)

// The far-memory curves depend on the layout ratios (DESIGN.md §4.5):
// the randomly-read hot region must be a small slice of the WSS.

func TestGapBSLayoutRatios(t *testing.T) {
	w := NewGapBS(DefaultGapBS())
	scoreFrac := float64(w.scores.pages) / float64(w.NumPages())
	if scoreFrac > 0.05 {
		t.Errorf("score region is %.1f%% of the WSS; must stay <5%% so it "+
			"remains resident at any offload level (paper: 330MB of 20GB)",
			scoreFrac*100)
	}
	// Edge arrays dominate.
	edgePages := w.inCSR.pages + w.outCSR.pages
	if frac := float64(edgePages) / float64(w.NumPages()); frac < 0.85 {
		t.Errorf("edge arrays are %.1f%% of the WSS; expected >85%%", frac*100)
	}
}

func TestGapBSScoreReadsAreTheBulkOfAccesses(t *testing.T) {
	p := GapBSParams{Scale: 10, EdgeFactor: 8, Iterations: 1, BytesPerVertex: 16, Seed: 3}
	w := NewGapBS(p)
	streams := w.Streams(2, 0)
	scoreReads, other := 0, 0
	for _, s := range streams {
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.Page < w.scores.pages && !a.Write {
				scoreReads++
			} else {
				other++
			}
		}
	}
	// One random score gather per edge dominates page-boundary walks.
	if scoreReads < 4*other {
		t.Errorf("score reads %d vs other accesses %d; gathers should dominate", scoreReads, other)
	}
}

func TestXSBenchIndexRegionDominates(t *testing.T) {
	w := NewXSBench(DefaultXSBench())
	if frac := float64(w.index.pages) / float64(w.NumPages()); frac < 0.6 {
		t.Errorf("index matrix is %.1f%% of the WSS; the paper's 15GB is index-dominated", frac*100)
	}
	if frac := float64(w.energy.pages) / float64(w.NumPages()); frac > 0.05 {
		t.Errorf("energy grid is %.1f%% of the WSS; must stay hot/small", frac*100)
	}
}

func TestXSBenchAccessesPerLookupConsistent(t *testing.T) {
	p := DefaultXSBench()
	p.LookupsPerThread = 50
	w := NewXSBench(p)
	s := w.Streams(1, 9)[0]
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if want := 50 * w.AccessesPerLookup(); n != want {
		t.Errorf("stream yielded %d accesses, want %d", n, want)
	}
}

func TestMetisReduceEmitsOutputWrites(t *testing.T) {
	p := MetisParams{
		InputPages: 256, IntermediatePages: 256, OutputPages: 64,
		EmitsPerInputPage: 1, MapCompute: 100, ReduceCompute: 100,
	}
	w := NewMetis(p)
	// Drive through a real system so the barrier works.
	cfg, err := core.Preset("magelib", 2, w.NumPages(), int(w.NumPages())+4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.EvictorThreads = 1
	s, err := core.NewNode(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	streams := w.Streams(2, 1)
	// Collect accesses by wrapping the streams.
	outWrites := 0
	wrapped := make([]core.AccessStream, len(streams))
	for i, st := range streams {
		st := st
		wrapped[i] = core.FuncStream(func() (core.Access, bool) {
			a, ok := st.Next()
			if ok && a.Write && a.Page >= w.output.base {
				outWrites++
			}
			return a, ok
		})
	}
	s.Run(wrapped)
	if outWrites == 0 {
		t.Error("reduce phase emitted no output-region writes")
	}
}

func TestGUPSRegionsPartitionWSS(t *testing.T) {
	w := NewGUPS(DefaultGUPS())
	if w.regionA.base != 0 {
		t.Error("region A must start at page 0 (PrepopulateFront depends on it)")
	}
	if w.regionA.base+w.regionA.pages != w.regionB.base {
		t.Error("regions A and B must be adjacent")
	}
	if got := w.regionA.pages + w.regionB.pages; got != w.NumPages() {
		t.Errorf("regions cover %d pages of %d", got, w.NumPages())
	}
	fracA := float64(w.regionA.pages) / float64(w.NumPages())
	if fracA < 0.75 || fracA > 0.85 {
		t.Errorf("region A is %.1f%% of WSS, want ~80%%", fracA*100)
	}
}

func TestMemcachedIndexBeforeSlab(t *testing.T) {
	w := NewMemcached(DefaultMemcached())
	if w.index.base != 0 || w.slab.base != w.index.pages {
		t.Error("layout order changed; index must precede slab")
	}
	if w.slab.pages < w.index.pages {
		t.Error("slab (values) should dominate the index")
	}
}
