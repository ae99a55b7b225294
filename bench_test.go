package mage_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment at Quick scale and reports simulated
// fault throughput alongside host time, so `go test -bench=.` both
// exercises every experiment end-to-end and tracks the harness's own
// performance.
//
// The printed tables (same rows/series as the paper) come from
// `go run ./cmd/magesim -exp <figN>`; the benches only validate and time.

import (
	"io"
	"testing"

	"mage"
	"mage/internal/experiments"
	"mage/internal/faultinject"
	"mage/internal/workload"
)

// benchScale is Quick() shrunk so each figure regenerates in a few
// seconds under the bench harness.
func benchScale() experiments.Scale {
	sc := experiments.Quick()
	sc.Threads = 24
	sc.Offloads = []float64{0.3, 0.7}
	sc.ThreadSweep = []int{8, 24}
	sc.GapBS = workload.GapBSParams{Scale: 13, EdgeFactor: 16, Iterations: 1, BytesPerVertex: 16, Seed: 42}
	sc.XS = workload.XSBenchParams{Gridpoints: 1 << 13, Nuclides: 32, LookupsPerThread: 600, NuclidesPerLookup: 4}
	sc.Seq = workload.SeqScanParams{Pages: 8 << 10, Iterations: 1, ComputePerPage: 3000}
	sc.Gups = workload.GUPSParams{Pages: 8 << 10, UpdatesPerThread: 2000, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250}
	sc.Metis = workload.MetisParams{InputPages: 4 << 10, IntermediatePages: 3 << 10,
		OutputPages: 512, EmitsPerInputPage: 1, MapCompute: 900, ReduceCompute: 700}
	sc.MC = workload.MemcachedParams{Keys: 1 << 15, ValueBytes: 256, Theta: 0.99,
		GetFraction: 0.998, ComputePerOp: 1500}
	sc.MicroPagesPerThread = 800
	sc.MCLoads = []float64{0.3e6, 0.8e6}
	sc.MCFixedLoad = 0.5e6
	sc.MCDuration = 10 * mage.Millisecond
	return sc
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	sc := benchScale()
	r, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables := r(sc)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", name)
		}
		for _, t := range tables {
			if len(t.Rows) == 0 {
				b.Fatalf("%s table %s empty", name, t.ID)
			}
			t.Print(io.Discard)
		}
	}
}

// Fig 1: GapBS throughput vs far-memory fraction, all systems.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// Fig 3: ideal-vs-Hermit collapse for GapBS and XSBench.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// Fig 4: sequential scan with prefetching vs the ideal baseline.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// Fig 5: fault-only vs fault+eviction throughput across thread counts.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// Fig 6: Hermit/DiLOS fault-handler latency breakdown.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// Fig 7: TLB shootdown and IPI delivery latency vs thread count.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Fig 9: GapBS + XSBench offload sweeps across all systems.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Fig 10: sequential scan with and without prefetching.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Fig 11: GUPS phase-change timeline.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Fig 12: Metis map/reduce phase throughput.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Fig 13: memcached p99 vs local memory and vs load.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Fig 14: 48-thread seq read at 30% local: p99 + sync evictions.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// Fig 15: throughput-latency vs raw RDMA.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// Fig 16: DiLOS vs MAGE latency breakdowns.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// Fig 17: cumulative technique ablation.
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// Fig 18: batch-size sweep + low-thread-count regression.
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// Table 1: application catalog.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Table 2: 100% local-memory performance.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Extension experiments (beyond the paper's figures).
func BenchmarkExtEvictorSweep(b *testing.B)   { benchExperiment(b, "extevict") }
func BenchmarkExtAccounting(b *testing.B)     { benchExperiment(b, "extacct") }
func BenchmarkExtBackends(b *testing.B)       { benchExperiment(b, "extbackend") }
func BenchmarkExtFaultTolerance(b *testing.B) { benchExperiment(b, "extfault") }

// BenchmarkClaims runs the headline-claim self-check.
func BenchmarkClaims(b *testing.B) { benchExperiment(b, "claims") }

// BenchmarkColocateGrid regenerates the multi-tenant co-location sweep.
func BenchmarkColocateGrid(b *testing.B) { benchExperiment(b, "colocate") }

// BenchmarkColocateNode measures a four-tenant node directly (no grid):
// host ns per simulated access with cross-tenant eviction pressure, plus
// the isolation-relevant per-tenant counters — benchsnap records them so
// co-location regressions show next to single-tenant perf.
func BenchmarkColocateNode(b *testing.B) {
	const nt, threads, pagesEach = 4, 2, 4096
	cfg := mage.MageLib(nt*threads, nt*pagesEach, nt*pagesEach/2)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 12
	specs := make([]mage.TenantSpec, nt)
	for i := range specs {
		specs[i] = mage.TenantSpec{AppThreads: threads, TotalPages: pagesEach}
	}
	node, err := mage.NewNode(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	budget := node.PrepopBudget()
	for _, tn := range node.Tenants() {
		tn.Prepopulate(budget / nt)
	}
	perThread := b.N/(nt*threads) + 1
	streams := make([][]mage.AccessStream, nt)
	for ti := range streams {
		streams[ti] = make([]mage.AccessStream, threads)
		for i := range streams[ti] {
			tid := uint64(nt*ti + i)
			n := 0
			streams[ti][i] = mage.FuncStream(func() (mage.Access, bool) {
				if n >= perThread {
					return mage.Access{}, false
				}
				pg := (uint64(n)*7919 + tid*131) % pagesEach
				n++
				return mage.Access{Page: pg, Write: n%3 == 0}, true
			})
		}
	}
	b.ResetTimer()
	results := node.RunTenants(streams, mage.RunOptions{})
	var faults, evicted uint64
	for _, res := range results {
		if res.TotalAccesses() == 0 {
			b.Fatal("a tenant ran no accesses")
		}
		faults += res.Metrics.MajorFaults
		evicted += res.Metrics.EvictedPages
	}
	ops := float64(nt * threads * perThread)
	b.ReportMetric(float64(faults)/ops, "faults/op")
	b.ReportMetric(float64(evicted)/ops, "evicted/op")
}

// BenchmarkParexpFigures measures the parallel cell runner end-to-end on
// a figure bundle: the same grids regenerated sequentially (Workers=1)
// and with the full worker pool (Workers=0 → GOMAXPROCS). The ratio of
// the two ns/op numbers is the wall-clock speedup; output is identical
// either way.
func BenchmarkParexpFigures(b *testing.B) {
	run := func(b *testing.B, workers int) {
		sc := benchScale()
		sc.Workers = workers
		for i := 0; i < b.N; i++ {
			for _, name := range []string{"fig5", "fig7", "fig14"} {
				r, err := experiments.Lookup(name)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range r(sc) {
					t.Print(io.Discard)
				}
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkFaultPathMageLib measures the simulated fault pipeline itself:
// host ns per simulated major fault on the full Mage^LIB stack, beside two
// counts that do not depend on the box: events dispatched and coroutine
// resumes per major fault.
func BenchmarkFaultPathMageLib(b *testing.B) {
	cfg := mage.MageLib(8, 1<<14, 1<<13)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 12
	sys := mage.MustNewSystem(cfg)
	i := uint64(0)
	stream := mage.FuncStream(func() (mage.Access, bool) {
		if i >= uint64(b.N) {
			return mage.Access{}, false
		}
		pg := (i * 7919) % (1 << 14)
		i++
		return mage.Access{Page: pg}, true
	})
	b.ResetTimer()
	res := sys.Run([]mage.AccessStream{stream})
	if res.TotalAccesses() == 0 {
		b.Fatal("no accesses")
	}
	if faults := float64(res.Metrics.MajorFaults); faults > 0 {
		b.ReportMetric(float64(sys.Eng.Resumes())/faults, "resumes/fault")
		b.ReportMetric(float64(sys.Eng.Dispatched())/faults, "events/fault")
	}
}

// BenchmarkNewSystemMageLib measures what a freshly built System holds
// of the host heap, in sim-grid's shape: Mage^LIB with 24 threads over
// 16 Ki pages, half of them local, on the default 2 × 28 machine. B/op
// is a number the box's speed cannot move: among it the per-core TLBs,
// built only for the cores a thread runs on.
func BenchmarkNewSystemMageLib(b *testing.B) {
	cfg := mage.MageLib(24, 16<<10, 8<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtSystem = mage.MustNewSystem(cfg)
	}
}

var builtSystem *mage.System

// BenchmarkFaultToleranceMageLib runs the fault pipeline under injected
// faults (per-op NACKs, spikes, periodic outages) and reports the
// robustness counters per simulated op alongside host ns/op, so that
// benchsnap -require can pin robustness next to performance.
func BenchmarkFaultToleranceMageLib(b *testing.B) {
	cfg := mage.MageLib(8, 1<<14, 1<<13)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 12
	cfg.FaultPlan = &faultinject.Plan{
		Seed:          faultinject.DeriveSeed(7, "bench", "fault-tolerance"),
		ReadFailProb:  0.02,
		WriteFailProb: 0.02,
		SpikeProb:     0.01,
		SpikeMin:      mage.Microsecond,
		SpikeMax:      20 * mage.Microsecond,
		Outages:       faultinject.PeriodicOutages(2*mage.Millisecond, 5*mage.Millisecond, 500*mage.Microsecond, 100),
	}
	sys := mage.MustNewSystem(cfg)
	i := uint64(0)
	stream := mage.FuncStream(func() (mage.Access, bool) {
		if i >= uint64(b.N) {
			return mage.Access{}, false
		}
		pg := (i * 7919) % (1 << 14)
		i++
		return mage.Access{Page: pg}, true
	})
	b.ResetTimer()
	res := sys.Run([]mage.AccessStream{stream})
	if res.TotalAccesses() == 0 {
		b.Fatal("no accesses")
	}
	m := res.Metrics
	ops := float64(res.TotalAccesses())
	b.ReportMetric(float64(m.FaultRetries+m.EvictRetries)/ops, "retries/op")
	b.ReportMetric(float64(m.FaultTimeouts+m.EvictTimeouts)/ops, "timeouts/op")
	b.ReportMetric(float64(m.FaultGiveUps)/ops, "giveups/op")
	b.ReportMetric(float64(m.DegradedNs)/1e6, "degraded-ms")
}
