package core

import (
	"testing"

	"mage/internal/nic"
	"mage/internal/pgtable"
	"mage/internal/sim"
	"mage/internal/swapspace"
)

func TestFaultReleasesSwapSlotOnSwapIn(t *testing.T) {
	cfg := Hermit(1, 256, 2048)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, tn := mustNode(t, cfg)
	gm := node.Swap.(*swapspace.GlobalSwapMap)
	// All 256 pages start reserved (swapped out).
	free0 := gm.FreeSlots()
	node.Eng.Spawn("t", func(p *sim.Proc) {
		th := tn.NewThread(p, 0)
		for pg := uint64(0); pg < 10; pg++ {
			th.Access(pg, false, 10)
		}
		th.Flush()
	})
	node.Eng.Run()
	if got := gm.FreeSlots(); got != free0+10 {
		t.Errorf("free slots = %d, want %d (slot freed per swap-in)", got, free0+10)
	}
}

func TestLinuxMMCostsShowInFaultLatency(t *testing.T) {
	run := func(linuxMM bool) float64 {
		cfg := Hermit(1, 512, 4096)
		cfg.Sockets = 1
		cfg.CoresPerSocket = 4
		cfg.LinuxMM = linuxMM
		node, _ := mustNode(t, cfg)
		res := node.Run([]AccessStream{seqStream(0, 512, 0)})
		return res.Metrics.FaultMeanNs
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Errorf("LinuxMM per-fault costs missing: %v <= %v", with, without)
	}
}

func TestPrefetchDropsUnderMemoryPressure(t *testing.T) {
	cfg := MageLib(2, 4096, 512) // heavy pressure
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	cfg.Prefetch = true
	node, tn := mustNode(t, cfg)
	streams := []AccessStream{
		seqStream(0, 4096, 0),
		seqStream(0, 4096, 0),
	}
	res := node.Run(streams)
	if res.Metrics.Prefetched == 0 && res.Metrics.PrefetchDrop == 0 {
		t.Error("no prefetches issued on a sequential scan")
	}
	// No page may be stranded in StateFaulting by a dropped prefetch.
	for pg := uint64(0); pg < cfg.TotalPages; pg++ {
		st := tn.AS.PTEOf(pg).State
		if st != pgtable.StatePresent && st != pgtable.StateRemote {
			t.Fatalf("page %d left in state %v", pg, st)
		}
	}
}

func TestVirtualizationCostsShowInFaultPath(t *testing.T) {
	run := func(virt bool) float64 {
		cfg := DiLOS(1, 512, 4096)
		cfg.Sockets = 1
		cfg.CoresPerSocket = 4
		cfg.Virtualized = virt
		node, _ := mustNode(t, cfg)
		res := node.Run([]AccessStream{seqStream(0, 512, 0)})
		return res.Metrics.FaultMeanNs
	}
	if v, b := run(true), run(false); v <= b {
		t.Errorf("virtualized fault path (%v) should cost more than bare metal (%v)", v, b)
	}
}

func TestKernelStackCostsShowInFaultPath(t *testing.T) {
	mk := func(kernel bool) float64 {
		cfg := DiLOS(1, 512, 4096)
		cfg.Sockets = 1
		cfg.CoresPerSocket = 4
		if kernel {
			cfg.Stack = nic.StackKernel
		}
		node, _ := mustNode(t, cfg)
		res := node.Run([]AccessStream{seqStream(0, 512, 0)})
		return res.Metrics.FaultMeanNs
	}
	if k, l := mk(true), mk(false); k <= l {
		t.Errorf("kernel stack fault (%v) should cost more than libOS (%v)", k, l)
	}
}

func TestBreakdownSumApproximatesMeanLatency(t *testing.T) {
	cfg := DiLOS(4, 2048, 1024)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, 4)
	for i := range streams {
		streams[i] = randStream(int64(i+40), 2000, cfg.TotalPages, 100, 0.3)
	}
	res := node.Run(streams)
	var sum float64
	for _, v := range res.Metrics.BreakdownNs {
		sum += v
	}
	mean := res.Metrics.FaultMeanNs
	if sum < 0.85*mean || sum > 1.15*mean {
		t.Errorf("breakdown sum %v vs mean fault latency %v: should match within 15%%", sum, mean)
	}
}
