package invariant_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"mage/internal/experiments"
	"mage/internal/sim"
	"mage/internal/workload"
)

// determinismScale is a deliberately small configuration: the double-run
// test cares about bit-reproducibility, not statistical fidelity, so the
// cheapest full-pipeline run is the right one.
func determinismScale() experiments.Scale {
	sc := experiments.Quick()
	sc.Threads = 8
	sc.RegressionThreads = 4
	sc.Offloads = []float64{0.3, 0.6}
	sc.ThreadSweep = []int{4, 8}
	sc.GapBS = workload.GapBSParams{Scale: 11, EdgeFactor: 12, Iterations: 1, BytesPerVertex: 16, Seed: 42}
	sc.XS = workload.XSBenchParams{Gridpoints: 1 << 11, Nuclides: 12, LookupsPerThread: 200, NuclidesPerLookup: 3}
	sc.Seq = workload.SeqScanParams{Pages: 4 << 10, Iterations: 1, ComputePerPage: 1500}
	sc.Gups = workload.GUPSParams{Pages: 4 << 10, UpdatesPerThread: 800, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250}
	sc.Metis = workload.MetisParams{InputPages: 2 << 10, IntermediatePages: 1 << 10,
		OutputPages: 256, EmitsPerInputPage: 1, MapCompute: 900, ReduceCompute: 700}
	sc.MC = workload.MemcachedParams{Keys: 1 << 13, ValueBytes: 256, Theta: 0.99,
		GetFraction: 0.998, ComputePerOp: 1500}
	sc.Rack = experiments.RackScale{NodeCounts: []int{4, 8}, DegradeNodes: 4, AccessesPerThread: 1200}
	sc.MicroPagesPerThread = 400
	sc.MCLoads = []float64{0.2e6}
	sc.MCFixedLoad = 0.3e6
	sc.MCDuration = 4 * sim.Millisecond
	sc.Seed = 7
	return sc
}

// digest renders every table both as aligned text and as CSV and hashes
// the bytes: any divergence in row order, cell formatting, or metric
// values changes the digest.
func digest(tables []*experiments.Table) string {
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Print(&buf)
		if err := tb.WriteCSV(&buf); err != nil {
			panic(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// The digest matrix: every registered experiment is rendered twice — on
// one worker and on four — and each render is compared with its pin in
// testdata/golden_digests.json. Same seed and configuration, same bytes,
// whatever the worker count and the run: two renders in one process
// matching one pin are the determinism check too. The golden test and
// the test below are the matrix's two columns; TestShardCountByteIdentical
// reads the golden test's column again, and a -count repeat compares
// again, both without rendering again.
const (
	sequential = 1 // workers on the reference path: no host goroutines
	workerPool = 4
)

// rendered is one cell of the matrix, rendered once per process.
type rendered struct {
	once   sync.Once
	digest string
}

var renders sync.Map // struct{ id string; workers int } -> *rendered

// render returns experiment id's digest on the given number of workers.
func render(t *testing.T, id string, workers int) string {
	v, _ := renders.LoadOrStore(struct {
		id      string
		workers int
	}{id, workers}, new(rendered))
	r := v.(*rendered)
	r.once.Do(func() {
		runner, err := experiments.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		sc := determinismScale()
		sc.Workers = workers
		r.digest = digest(runner(sc))
	})
	return r.digest
}

// checkGolden renders each of ids on the given number of workers, one
// parallel subtest each, and holds the digest to its pin.
func checkGolden(t *testing.T, ids []string, workers int) {
	golden := readGolden(t)
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[id]
			if !ok {
				t.Fatalf("experiment %q has no pinned golden digest (run -update-golden and review the diff)", id)
			}
			if got := render(t, id, workers); got != want {
				t.Errorf("experiment %s at %d workers: digest %s, want the golden %s", id, workers, got, want)
			}
		})
	}
}

// TestSequentialParallelByteIdentical is the matrix at a pool of four
// workers, against the pins the sequential reference path rendered. This
// is the parexp contract: cells are seeded from their grid identity and
// collected in cell order, so worker count and host scheduling must never
// reach the tables — in every registry experiment, not just the ones with
// convenient grids.
func TestSequentialParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short mode")
	}
	checkGolden(t, experiments.Names(), workerPool)
}
