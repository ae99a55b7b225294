package workload

import (
	"slices"
	"testing"

	"mage/internal/core"
	"mage/internal/sim"
)

func tinyNode(t *testing.T, preset string, threads int, wss uint64, localFrac float64) *core.Node {
	t.Helper()
	cfg, err := core.Preset(preset, threads, wss, core.LocalPages(wss, localFrac))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	n, err := core.NewNode(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMetisPhaseBarrierOnSystem(t *testing.T) {
	p := MetisParams{
		InputPages: 1500, IntermediatePages: 1000, OutputPages: 200,
		EmitsPerInputPage: 1, MapCompute: 400, ReduceCompute: 300,
	}
	w := NewMetis(p)
	s := tinyNode(t, "magelib", 4, w.NumPages(), 0.6)
	set := w.Streams(4, 1)
	res := s.Run(set)
	if at := PhaseSwitchAt(set); at <= 0 || at >= res.Makespan {
		t.Errorf("phase switch at %v, makespan %v", at, res.Makespan)
	}
	if res.TotalFaults() == 0 {
		t.Error("expected faults")
	}
}

func TestGapBSRunsOnAllSystems(t *testing.T) {
	w := NewGapBS(GapBSParams{Scale: 13, EdgeFactor: 4, Iterations: 1, BytesPerVertex: 64, Seed: 2})
	for _, preset := range []string{"ideal", "hermit", "magelib"} {
		s := tinyNode(t, preset, 4, w.NumPages(), 0.6)
		res := s.Run(w.Streams(4, 0))
		if res.TotalFaults() == 0 {
			t.Errorf("%s: no faults on 50%% local", preset)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: empty run", preset)
		}
	}
}

func TestGUPSPhaseChangeVisibleInTimeSeries(t *testing.T) {
	p := GUPSParams{
		Pages: 6000, UpdatesPerThread: 8000, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 300,
	}
	w := NewGUPS(p)
	s := tinyNode(t, "magelib", 4, w.NumPages(), 0.85)
	res := s.RunTenants([][]core.AccessStream{w.Streams(4, 3)}, core.RunOptions{SampleEvery: 200 * sim.Microsecond})[0]
	if res.Series == nil || res.Series.Len() < 5 {
		t.Fatal("time series too short")
	}
	// The phase change forces a throughput dip: min rate well below max.
	if low := slices.Min(res.Series.V); low > 0.8*res.Series.Max() {
		t.Errorf("no dip visible: min=%.0f max=%.0f", low, res.Series.Max())
	}
}

func TestMemcachedOpenLoopLatency(t *testing.T) {
	p := MemcachedParams{
		Keys: 1 << 14, ValueBytes: 256, Theta: 0.99,
		GetFraction: 0.998, ComputePerOp: 1000,
	}
	w := NewMemcached(p)
	s := tinyNode(t, "magelib", 4, w.NumPages(), 0.7)
	res := w.RunOpenLoop(s, 4, 200000, 40*sim.Millisecond, 11)
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if res.P99Ns < res.P50Ns {
		t.Errorf("p99 %d < p50 %d", res.P99Ns, res.P50Ns)
	}
	if res.AchievedOps <= 0 || res.AchievedOps > 2*res.OfferedOps {
		t.Errorf("achieved %f vs offered %f", res.AchievedOps, res.OfferedOps)
	}
	// At modest load with 70% local memory, p99 stays microseconds-scale.
	if res.P99Ns > int64(5*sim.Millisecond) {
		t.Errorf("p99 = %v implausibly high", sim.Time(res.P99Ns))
	}
}

func TestMemcachedLatencyGrowsWithLoad(t *testing.T) {
	run := func(load float64) LatencyResult {
		p := MemcachedParams{
			Keys: 1 << 14, ValueBytes: 256, Theta: 0.99,
			GetFraction: 0.998, ComputePerOp: 1000,
		}
		w := NewMemcached(p)
		s := tinyNode(t, "dilos", 4, w.NumPages(), 0.5)
		return w.RunOpenLoop(s, 4, load, 30*sim.Millisecond, 5)
	}
	lo := run(100000)
	hi := run(900000)
	if hi.P99Ns <= lo.P99Ns {
		t.Errorf("p99 did not grow with load: %d @100k vs %d @900k", lo.P99Ns, hi.P99Ns)
	}
}
