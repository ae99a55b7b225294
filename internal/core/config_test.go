package core

import (
	"strings"
	"testing"

	"mage/internal/nic"
	"mage/internal/pgtable"
)

func TestKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{AcctGlobalLRU.String(), "global-lru"},
		{AcctPartitioned.String(), "partitioned"},
		{AcctPerCPUFIFO.String(), "per-cpu-fifo"},
		{AcctS3FIFO.String(), "s3fifo"},
		{AllocGlobalLock.String(), "global-lock"},
		{AllocPerCPUCache.String(), "per-cpu-cache"},
		{AllocMultiLayer.String(), "multi-layer"},
		{SwapGlobalMap.String(), "global-map"},
		{SwapDirectMap.String(), "direct-map"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if s := AccountingKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind String() = %q", s)
	}
}

func TestPresetsAreFaithfulToTheirSystems(t *testing.T) {
	hermit := Hermit(48, 1<<16, 1<<15)
	if !hermit.SyncEviction || hermit.Pipelined {
		t.Error("Hermit: sync eviction on, pipelining off")
	}
	if hermit.Swap != SwapGlobalMap || !hermit.LinuxMM || hermit.Virtualized {
		t.Error("Hermit: Linux swap map, Linux MM costs, bare metal")
	}
	if hermit.Stack != nic.StackKernel {
		t.Error("Hermit uses the kernel RDMA stack")
	}

	dilos := DiLOS(48, 1<<16, 1<<15)
	if dilos.Swap != SwapDirectMap || dilos.PTLock != pgtable.LockPerPTE {
		t.Error("DiLOS: direct mapping + per-PTE sync")
	}
	if dilos.Allocator != AllocGlobalLock || !dilos.Virtualized {
		t.Error("DiLOS: global allocator lock, virtualized")
	}

	lib := MageLib(48, 1<<16, 1<<15)
	if lib.SyncEviction || !lib.Pipelined || lib.Accounting != AcctPartitioned {
		t.Error("MageLib: P1+P2+partitioned accounting")
	}
	if lib.Allocator != AllocMultiLayer || lib.BatchSize != 256 {
		t.Error("MageLib: multi-layer allocator, 256-page batches")
	}

	lnx := MageLnx(48, 1<<16, 1<<15)
	if lnx.Accounting != AcctPerCPUFIFO || lnx.HonorAccessedBit {
		t.Error("MageLnx: FIFO queues without second chance")
	}
	if lnx.PTLock != pgtable.LockSharded || lnx.Stack != nic.StackKernel {
		t.Error("MageLnx: sharded page-table locks over the kernel stack")
	}

	ideal := Ideal(48, 1<<16, 1<<15)
	if !ideal.Ideal {
		t.Error("Ideal preset must set Ideal")
	}
}

func TestLocalPages(t *testing.T) {
	if got := LocalPages(1000, 0.5); got != 500 {
		t.Errorf("LocalPages(1000, 0.5) = %d, want 500", got)
	}
	// All-local: the WSS plus watermark headroom, so nothing is evicted.
	if got := LocalPages(1000, 1); got != 1000+1000/6+4096 {
		t.Errorf("LocalPages(1000, 1) = %d, want %d", got, 1000+1000/6+4096)
	}
	if got := LocalPages(1000, 1.5); got != LocalPages(1000, 1) {
		t.Errorf("a fraction over 1 got %d, not the all-local quota", got)
	}
	if got := LocalPages(100, 0.01); got != 64 {
		t.Errorf("LocalPages(100, 0.01) = %d, want the 64-page floor", got)
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	cfg := Config{AppThreads: 4, TotalPages: 1 << 14, LocalMemPages: 1 << 13}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Sockets != 2 || cfg.CoresPerSocket != 28 {
		t.Errorf("machine defaults: %dx%d", cfg.Sockets, cfg.CoresPerSocket)
	}
	if cfg.EvictorThreads != 4 {
		t.Errorf("evictors = %d", cfg.EvictorThreads)
	}
	if cfg.BatchSize <= 0 || cfg.TLBBatch <= 0 || cfg.syncBatch() != 32 {
		t.Errorf("batch defaults: batch %d, TLB %d, sync %d", cfg.BatchSize, cfg.TLBBatch, cfg.syncBatch())
	}
	// 2% and 4% of 8,192 frames.
	if low, high := cfg.lowWatermarkFrames(), cfg.highWatermarkFrames(); low != 163 || high != 327 {
		t.Errorf("watermarks: low %d, high %d; want 163, 327", low, high)
	}
}

func TestValidateClampsBatchesToSmallMemory(t *testing.T) {
	cfg := MageLib(2, 1024, 256)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.BatchSize > 256/8 {
		t.Errorf("BatchSize %d not clamped for 256-frame memory", cfg.BatchSize)
	}
	if cfg.TLBBatch > cfg.BatchSize || cfg.syncBatch() > cfg.BatchSize {
		t.Error("TLB/sync batches exceed the eviction batch")
	}
}

func TestIdealCostModelIsZeroExceptWire(t *testing.T) {
	cfg := Ideal(4, 1<<14, 1<<13)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := DefaultCostModel(cfg)
	if m.FaultEntry != 0 || m.Rmap != 0 || m.PT.Update != 0 || m.LRU.InsertHold != 0 {
		t.Error("ideal cost model must zero software costs")
	}
	if m.NIC.BaseLatency <= 0 || m.NIC.BytesPerNs <= 0 {
		t.Error("ideal cost model keeps wire latency and bandwidth")
	}
	if m.ComputeFactor != 1.0 {
		t.Errorf("ideal ComputeFactor = %v; zero would erase workload compute", m.ComputeFactor)
	}
}

func TestIdealRunsConsumeComputeTime(t *testing.T) {
	cfg := Ideal(1, 256, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 2
	node, tn := mustNode(t, cfg)
	tn.Prepopulate(256)
	res := node.Run([]AccessStream{seqStream(0, 256, 1000)})
	if res.Makespan < 256*1000 {
		t.Errorf("ideal makespan %v < pure compute 256µs", res.Makespan)
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{System: "X", MajorFaults: 5, FaultMeanNs: 1000}
	s := m.String()
	for _, want := range []string{"X", "faults=5", "mean=1000ns"} {
		if !strings.Contains(s, want) {
			t.Errorf("Metrics.String() = %q missing %q", s, want)
		}
	}
}
