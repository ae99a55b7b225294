package core

import (
	"math/rand"
	"testing"

	"mage/internal/pgtable"
	"mage/internal/sim"
)

// mustNode builds a single-tenant node from cfg and returns it with its
// tenant.
func mustNode(t testing.TB, cfg Config) (*Node, *Tenant) {
	t.Helper()
	n, err := NewNode(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, n.tenants[0]
}

// randStream returns a stream of n uniform random accesses over pages
// [0, wss) with the given per-access compute cost.
func randStream(seed int64, n int, wss uint64, compute sim.Time, writeFrac float64) AccessStream {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return FuncStream(func() (Access, bool) {
		if i >= n {
			return Access{}, false
		}
		i++
		return Access{
			Page:    uint64(rng.Int63n(int64(wss))),
			Write:   rng.Float64() < writeFrac,
			Compute: compute,
		}, true
	})
}

// seqStream returns a stream touching pages start..start+n-1 in order.
func seqStream(start uint64, n int, compute sim.Time) AccessStream {
	i := 0
	return FuncStream(func() (Access, bool) {
		if i >= n {
			return Access{}, false
		}
		pg := start + uint64(i)
		i++
		return Access{Page: pg, Compute: compute}, true
	})
}

func smallPreset(t *testing.T, name string, threads int) Config {
	t.Helper()
	cfg, err := Preset(name, threads, 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	return cfg
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range Presets(48, 1<<16, 1<<15) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPresetUnknownName(t *testing.T) {
	if _, err := Preset("windows", 1, 10, 5); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{AppThreads: 0, TotalPages: 10, LocalMemPages: 5},
		{AppThreads: 1, TotalPages: 0, LocalMemPages: 5},
		{AppThreads: 1, TotalPages: 10, LocalMemPages: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
}

func TestWatermarkOrdering(t *testing.T) {
	cfg := MageLib(4, 1<<16, 1<<14)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.lowWatermarkFrames() >= cfg.highWatermarkFrames() {
		t.Errorf("low %d >= high %d", cfg.lowWatermarkFrames(), cfg.highWatermarkFrames())
	}
}

func TestAllSystemsCompleteRandomWorkload(t *testing.T) {
	for _, name := range []string{"ideal", "hermit", "dilos", "magelib", "magelnx"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smallPreset(t, name, 4)
			node, tn := mustNode(t, cfg)
			streams := make([]AccessStream, cfg.AppThreads)
			for i := range streams {
				streams[i] = randStream(int64(i+1), 2000, cfg.TotalPages, 200, 0.3)
			}
			res := node.Run(streams)
			if got := res.TotalAccesses(); got != 8000 {
				t.Errorf("accesses = %d, want 8000", got)
			}
			if res.TotalFaults() == 0 {
				t.Error("expected faults with 50% local memory")
			}
			if res.Makespan <= 0 {
				t.Errorf("makespan = %v", res.Makespan)
			}
			// Frame conservation after drain: every frame is either free
			// or backs a resident page.
			if got := node.Alloc.FreeFrames() + tn.AS.Resident(); got != cfg.LocalMemPages {
				t.Errorf("frames: free(%d) + resident(%d) = %d, want %d",
					node.Alloc.FreeFrames(), tn.AS.Resident(), got, cfg.LocalMemPages)
			}
			if tn.AS.Resident() > cfg.LocalMemPages {
				t.Errorf("resident %d exceeds quota %d", tn.AS.Resident(), cfg.LocalMemPages)
			}
		})
	}
}

func TestEvictionTriggersUnderPressure(t *testing.T) {
	cfg := smallPreset(t, "magelib", 2)
	node, _ := mustNode(t, cfg)
	streams := []AccessStream{
		seqStream(0, 4000, 200), // touches every page: must evict
		seqStream(0, 4000, 200),
	}
	res := node.Run(streams)
	if res.Metrics.EvictedPages == 0 {
		t.Error("no evictions despite working set exceeding local memory")
	}
	if res.Metrics.SyncEvicts != 0 {
		t.Errorf("MAGE performed %d synchronous evictions (P1 violated)", res.Metrics.SyncEvicts)
	}
}

func TestMageNeverSyncEvicts(t *testing.T) {
	for _, name := range []string{"magelib", "magelnx"} {
		cfg := smallPreset(t, name, 4)
		node, _ := mustNode(t, cfg)
		streams := make([]AccessStream, 4)
		for i := range streams {
			streams[i] = randStream(int64(i+7), 3000, cfg.TotalPages, 100, 0.5)
		}
		res := node.Run(streams)
		if res.Metrics.SyncEvicts != 0 {
			t.Errorf("%s: %d sync evictions", name, res.Metrics.SyncEvicts)
		}
	}
}

func TestHermitSyncEvictsUnderPressure(t *testing.T) {
	cfg := smallPreset(t, "hermit", 6)
	// Starve the eviction path: tiny local memory, no compute between
	// accesses.
	cfg.LocalMemPages = 700
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, 6)
	for i := range streams {
		streams[i] = randStream(int64(i+3), 2500, cfg.TotalPages, 0, 0.5)
	}
	res := node.Run(streams)
	if res.Metrics.SyncEvicts == 0 {
		t.Error("Hermit should fall back to synchronous eviction under pressure")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		cfg := smallPreset(t, "magelib", 4)
		node, _ := mustNode(t, cfg)
		streams := make([]AccessStream, 4)
		for i := range streams {
			streams[i] = randStream(int64(i+11), 2000, cfg.TotalPages, 150, 0.4)
		}
		res := node.Run(streams)
		return res.Makespan, res.TotalFaults(), res.Metrics.EvictedPages
	}
	m1, f1, e1 := run()
	m2, f2, e2 := run()
	if m1 != m2 || f1 != f2 || e1 != e2 {
		t.Errorf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", m1, f1, e1, m2, f2, e2)
	}
}

func TestIdealFaultCostIsPureDataMovement(t *testing.T) {
	cfg := smallPreset(t, "ideal", 1)
	node, _ := mustNode(t, cfg)
	res := node.Run([]AccessStream{seqStream(0, 1000, 0)})
	// One uncontended fault per page, each exactly 3.9 µs.
	if res.TotalFaults() != 1000 {
		t.Fatalf("faults = %d, want 1000", res.TotalFaults())
	}
	if res.Metrics.FaultP99Ns != 3900 || res.Metrics.FaultMaxNs != 3900 {
		t.Errorf("ideal fault p99=%d max=%d, want 3900",
			res.Metrics.FaultP99Ns, res.Metrics.FaultMaxNs)
	}
	if res.Makespan != 1000*3900 {
		t.Errorf("makespan = %v, want 3.9ms", res.Makespan)
	}
}

func TestIdealEvictsForFree(t *testing.T) {
	cfg := smallPreset(t, "ideal", 1)
	cfg.LocalMemPages = 256
	node, _ := mustNode(t, cfg)
	res := node.Run([]AccessStream{seqStream(0, 4096, 0)})
	if res.Metrics.EvictedPages == 0 {
		t.Fatal("ideal system never evicted")
	}
	// Eviction costs nothing: makespan is still faults × 3.9 µs.
	if res.Makespan != sim.Time(res.TotalFaults())*3900 {
		t.Errorf("makespan %v != faults × 3.9µs (%v)",
			res.Makespan, sim.Time(res.TotalFaults())*3900)
	}
}

func TestConcurrentFaultsOnSamePageDeduplicate(t *testing.T) {
	cfg := smallPreset(t, "dilos", 8)
	node, _ := mustNode(t, cfg)
	// All threads touch the same small page set simultaneously.
	streams := make([]AccessStream, 8)
	for i := range streams {
		streams[i] = seqStream(0, 500, 0)
	}
	res := node.Run(streams)
	if res.Metrics.DedupWaits == 0 {
		t.Error("expected fault deduplication with identical streams")
	}
	// Every page is fetched at most once per residency period.
	if res.Metrics.MajorFaults > 500+res.Metrics.EvictedPages {
		t.Errorf("faults %d exceed first-touches + re-fetches (%d)",
			res.Metrics.MajorFaults, 500+res.Metrics.EvictedPages)
	}
}

func TestPrefetchCutsFaultsOnSequentialScan(t *testing.T) {
	run := func(pf bool) uint64 {
		cfg := smallPreset(t, "magelib", 2)
		cfg.Prefetch = pf
		node, _ := mustNode(t, cfg)
		streams := []AccessStream{
			seqStream(0, 4000, 300),
			seqStream(0, 4000, 300),
		}
		res := node.Run(streams)
		return res.TotalFaults()
	}
	without, with := run(false), run(true)
	if with >= without {
		t.Errorf("prefetch did not help: %d faults with vs %d without", with, without)
	}
	if float64(with) > 0.75*float64(without) {
		t.Errorf("prefetch only cut faults from %d to %d; want >25%% reduction", without, with)
	}
}

func TestResidencyRespectsQuotaDuringRun(t *testing.T) {
	cfg := smallPreset(t, "magelnx", 4)
	node, tn := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i), 1500, cfg.TotalPages, 100, 0.2)
	}
	// Watchdog samples residency during the run.
	node.Eng.Spawn("watchdog", func(p *sim.Proc) {
		for !node.Stopped() {
			if tn.AS.Resident() > cfg.LocalMemPages {
				t.Errorf("resident %d > quota %d at %v",
					tn.AS.Resident(), cfg.LocalMemPages, p.Now())
				return
			}
			p.Sleep(20 * sim.Microsecond)
		}
	})
	node.Run(streams)
}

func TestFaultBreakdownComponentsPresent(t *testing.T) {
	cfg := smallPreset(t, "hermit", 4)
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i+21), 2000, cfg.TotalPages, 100, 0.5)
	}
	res := node.Run(streams)
	for _, comp := range []string{CompRDMA, CompAcct, CompAlloc, CompOthers} {
		if res.Metrics.BreakdownNs[comp] <= 0 {
			t.Errorf("breakdown component %q = %v", comp, res.Metrics.BreakdownNs[comp])
		}
	}
	// RDMA must dominate at low thread count (paper, Fig 6 caption).
	if res.Metrics.BreakdownNs[CompRDMA] < 3000 {
		t.Errorf("rdma component %v ns implausibly low", res.Metrics.BreakdownNs[CompRDMA])
	}
}

func TestRunWithSampling(t *testing.T) {
	cfg := smallPreset(t, "magelib", 2)
	node, _ := mustNode(t, cfg)
	streams := []AccessStream{
		randStream(1, 3000, cfg.TotalPages, 500, 0.2),
		randStream(2, 3000, cfg.TotalPages, 500, 0.2),
	}
	res := node.RunTenants([][]AccessStream{streams}, RunOptions{SampleEvery: 100 * sim.Microsecond})[0]
	if res.Series == nil || res.Series.Len() == 0 {
		t.Fatal("no time series recorded")
	}
	if res.Series.Max() <= 0 {
		t.Error("sampled throughput never positive")
	}
}

func TestPTEStatesSettleAfterRun(t *testing.T) {
	cfg := smallPreset(t, "magelib", 4)
	node, tn := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i+31), 2000, cfg.TotalPages, 100, 0.5)
	}
	node.Run(streams)
	present := 0
	for pg := uint64(0); pg < cfg.TotalPages; pg++ {
		st := tn.AS.PTEOf(pg).State
		switch st {
		case pgtable.StatePresent:
			present++
		case pgtable.StateRemote:
		default:
			t.Fatalf("page %d left in transient state %v", pg, st)
		}
	}
	if present != tn.AS.Resident() {
		t.Errorf("present count %d != Resident() %d", present, tn.AS.Resident())
	}
}

func TestNoStreamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	node, _ := mustNode(t, smallPreset(t, "ideal", 1))
	node.Run(nil)
}
