package core

import (
	"testing"

	"mage/internal/nic"
	"mage/internal/pgtable"
	"mage/internal/sim"
	"mage/internal/swapspace"
)

func TestPrepopulateStopsAtHighWatermark(t *testing.T) {
	cfg := MageLib(4, 4096, 2048)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	node, tn := mustNode(t, cfg)
	n := tn.Prepopulate(4096)
	if n <= 0 {
		t.Fatal("nothing populated")
	}
	wantMax := cfg.LocalMemPages - node.Cfg.highWatermarkFrames()
	if n > wantMax {
		t.Errorf("populated %d, want <= %d (high watermark headroom)", n, wantMax)
	}
	if tn.AS.Resident() != n {
		t.Errorf("Resident = %d after Prepopulate(%d)", tn.AS.Resident(), n)
	}
	if node.Alloc.FreeFrames() != cfg.LocalMemPages-n {
		t.Errorf("free frames = %d, want %d", node.Alloc.FreeFrames(), cfg.LocalMemPages-n)
	}
}

func TestPrepopulateClampsToWSS(t *testing.T) {
	cfg := MageLib(4, 100, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	_, tn := mustNode(t, cfg)
	if n := tn.Prepopulate(10_000); n != 100 {
		t.Errorf("populated %d, want the whole 100-page WSS", n)
	}
}

func TestPrepopulateFreesHermitSwapSlots(t *testing.T) {
	cfg := Hermit(2, 512, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, tn := mustNode(t, cfg)
	gm := node.Swap.(*swapspace.GlobalSwapMap)
	before := gm.FreeSlots()
	n := tn.Prepopulate(512)
	if gm.FreeSlots() != before+n {
		t.Errorf("swap slots: %d -> %d after populating %d pages",
			before, gm.FreeSlots(), n)
	}
}

func TestPrepopulateFrontIsContiguous(t *testing.T) {
	cfg := MageLib(2, 1000, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	_, tn := mustNode(t, cfg)
	n := tn.PrepopulateFront(800)
	if n != 800 {
		t.Fatalf("populated %d, want 800", n)
	}
	for pg := uint64(0); pg < 800; pg++ {
		if tn.AS.PTEOf(pg).State != pgtable.StatePresent {
			t.Fatalf("page %d not resident after front population", pg)
		}
	}
	if tn.AS.PTEOf(900).State == pgtable.StatePresent {
		t.Error("page beyond the front range is resident")
	}
}

func TestPrepopulateSpreadLeavesUniformGap(t *testing.T) {
	cfg := MageLib(2, 1000, 700)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	_, tn := mustNode(t, cfg)
	n := tn.Prepopulate(1000)
	if n >= 1000 || n <= 0 {
		t.Fatalf("populated %d; the 700-frame quota must leave a gap", n)
	}
	// The gap must not be concentrated: both halves of the address space
	// contain absent pages.
	absent := func(lo, hi uint64) int {
		c := 0
		for pg := lo; pg < hi; pg++ {
			if tn.AS.PTEOf(pg).State != pgtable.StatePresent {
				c++
			}
		}
		return c
	}
	first, second := absent(0, 500), absent(500, 1000)
	if first == 0 || second == 0 {
		t.Errorf("gap concentrated: %d absent in first half, %d in second", first, second)
	}
	ratio := float64(first) / float64(second)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("gap unbalanced: %d vs %d", first, second)
	}
}

func TestComputeFactorDilatesVirtualizedRuns(t *testing.T) {
	run := func(virt bool) sim.Time {
		cfg := DiLOS(2, 512, 4096)
		cfg.Sockets = 1
		cfg.CoresPerSocket = 4
		cfg.Virtualized = virt
		node, tn := mustNode(t, cfg)
		tn.Prepopulate(512) // fully resident: pure compute
		streams := []AccessStream{
			seqStream(0, 512, 1000),
			seqStream(0, 512, 1000),
		}
		return node.Run(streams).Makespan
	}
	bare, virt := run(false), run(true)
	if virt <= bare {
		t.Errorf("virtualized makespan %v <= bare metal %v", virt, bare)
	}
	// OSv-class overhead is ~6.5%.
	if f := float64(virt) / float64(bare); f < 1.03 || f > 1.12 {
		t.Errorf("dilation factor %.3f outside [1.03, 1.12]", f)
	}
}

func TestEffectiveBatchBounds(t *testing.T) {
	cfg := MageLib(4, 1<<16, 1<<15)
	node, _ := mustNode(t, cfg)
	if got := node.effectiveBatch(256); got != 256 {
		t.Errorf("large memory: batch = %d, want 256 unclamped", got)
	}
	small := MageLib(4, 4096, 512)
	small.Sockets = 1
	small.CoresPerSocket = 8
	tiny, _ := mustNode(t, small)
	if got := tiny.effectiveBatch(256); got > 512/(8*small.EvictorThreads) {
		t.Errorf("small memory: batch = %d not clamped", got)
	}
	if got := tiny.effectiveBatch(1); got != 1 {
		t.Errorf("tiny configured batch changed: %d", got)
	}
}

func TestEvictionDeficitCountsWaitersAndInflight(t *testing.T) {
	cfg := MageLib(2, 4096, 2048)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, _ := mustNode(t, cfg)
	base := node.evictionDeficit()
	node.inflight = 10
	want := base - 10
	if want < 0 {
		want = 0
	}
	if got := node.evictionDeficit(); got != want {
		t.Errorf("inflight not subtracted: %d vs %d", got, want)
	}
	// Deficit is floored at zero before adding waiters.
	node.inflight = 1 << 20
	if got := node.evictionDeficit(); got != 0 {
		t.Errorf("deficit with huge inflight = %d, want 0", got)
	}
	node.inflight = 0
	// A blocked faulting thread raises the deficit by one.
	node.Eng.Spawn("waiter", func(p *sim.Proc) { node.freeWait.Wait(p) })
	node.Eng.Spawn("checker", func(p *sim.Proc) {
		p.Sleep(10)
		if got := node.evictionDeficit(); got != base+1 {
			t.Errorf("waiter not counted: %d vs %d", got, base+1)
		}
		node.freeWait.Broadcast()
	})
	node.Eng.Run()
}

func TestS3FIFOSystemRuns(t *testing.T) {
	cfg := MageLib(4, 4096, 2048)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.Accounting = AcctS3FIFO
	cfg.EvictorThreads = 2
	node, tn := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i+5), 2000, cfg.TotalPages, 150, 0.3)
	}
	res := node.Run(streams)
	if res.TotalFaults() == 0 || res.Metrics.EvictedPages == 0 {
		t.Error("S3FIFO system did not exercise the paging paths")
	}
	if got := node.Alloc.FreeFrames() + tn.AS.Resident(); got != cfg.LocalMemPages {
		t.Errorf("frame conservation broken with S3FIFO: %d", got)
	}
}

func TestBackendsRunEndToEnd(t *testing.T) {
	for _, be := range []nic.Backend{nic.BackendNVMe, nic.BackendZswap} {
		cfg := MageLib(2, 2048, 1024)
		cfg.Sockets = 1
		cfg.CoresPerSocket = 4
		cfg.Backend = be
		cfg.EvictorThreads = 2
		node, _ := mustNode(t, cfg)
		streams := []AccessStream{
			seqStream(0, 2048, 500),
			seqStream(0, 2048, 500),
		}
		res := node.Run(streams)
		if res.TotalFaults() == 0 {
			t.Errorf("%v: no faults", be)
		}
		// NVMe's 18µs latency must show in fault latency.
		if be == nic.BackendNVMe && res.Metrics.FaultMeanNs < 18000 {
			t.Errorf("NVMe mean fault %v ns < device latency", res.Metrics.FaultMeanNs)
		}
	}
}

func TestInflightReturnsToZeroAfterRun(t *testing.T) {
	cfg := MageLib(4, 4096, 1024)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i), 2000, cfg.TotalPages, 100, 0.4)
	}
	node.Run(streams)
	if node.inflight != 0 {
		t.Errorf("inflight = %d after drain, want 0", node.inflight)
	}
}

func TestMinorFaultCounting(t *testing.T) {
	cfg := DiLOS(8, 512, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, 8)
	for i := range streams {
		streams[i] = seqStream(0, 512, 0) // identical: heavy dedup
	}
	res := node.Run(streams)
	if res.Metrics.MinorFaults == 0 {
		t.Error("identical streams should produce minor faults (dedup hits)")
	}
	if res.Metrics.MajorFaults > 512 {
		t.Errorf("major faults %d > distinct pages (no eviction configured)",
			res.Metrics.MajorFaults)
	}
}
