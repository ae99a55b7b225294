package core

import (
	"testing"

	"mage/internal/swapspace"
)

func TestZeroFillFaultSkipsRDMA(t *testing.T) {
	cfg := MageLib(1, 1024, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, tn := mustNode(t, cfg)
	tn.MarkZeroFill(512, 1024)
	streams := []AccessStream{seqStream(0, 1024, 0)}
	res := node.Run(streams)
	// All 1024 pages fault, but only the first 512 are remote reads.
	if res.TotalFaults() != 1024 {
		t.Fatalf("faults = %d", res.TotalFaults())
	}
	if got := node.NIC.Reads.Value(); got != 512 {
		t.Errorf("RDMA reads = %d, want 512 (zero-fill half skips the wire)", got)
	}
	// Zero-fill faults are much cheaper than remote faults.
	if res.Metrics.FaultMeanNs > 4000 {
		t.Errorf("mean fault %v ns; the zero-fill half should pull it below a wire fault", res.Metrics.FaultMeanNs)
	}
}

func TestZeroFillPagesEvictAndReturnAsRemote(t *testing.T) {
	cfg := MageLib(1, 1024, 512)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.EvictorThreads = 1
	node, tn := mustNode(t, cfg)
	tn.MarkZeroFill(0, 1024)
	// Two passes: the second pass refaults evicted zero-fill pages, which
	// now hold real (dirtied) content remotely.
	streams := []AccessStream{FuncStream(func() func() (Access, bool) {
		i := 0
		return func() (Access, bool) {
			if i >= 2048 {
				return Access{}, false
			}
			a := Access{Page: uint64(i % 1024), Write: true, Compute: 200}
			i++
			return a, true
		}
	}())}
	res := node.Run(streams)
	if res.Metrics.EvictedPages == 0 {
		t.Fatal("no evictions")
	}
	// Refaults of previously evicted pages must hit the wire.
	if node.NIC.Reads.Value() == 0 {
		t.Error("second-pass refaults should be remote reads")
	}
	// Dirtied zero-fill pages get written back on eviction.
	if node.NIC.Writes.Value() == 0 {
		t.Error("dirty zero-fill pages must be written back")
	}
}

func TestMarkZeroFillFreesHermitSwapSlots(t *testing.T) {
	cfg := Hermit(1, 512, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, tn := mustNode(t, cfg)
	gm := node.Swap.(*swapspace.GlobalSwapMap)
	before := gm.FreeSlots()
	tn.MarkZeroFill(100, 200)
	if got := gm.FreeSlots(); got != before+100 {
		t.Errorf("free slots %d -> %d; zero-fill pages must not hold swap slots", before, got)
	}
}

func TestIdealHandlesZeroFill(t *testing.T) {
	cfg := Ideal(1, 512, 4096)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	node, tn := mustNode(t, cfg)
	tn.MarkZeroFill(0, 512)
	res := node.Run([]AccessStream{seqStream(0, 512, 0)})
	if res.TotalFaults() != 512 {
		t.Fatalf("faults = %d", res.TotalFaults())
	}
	if node.NIC.Reads.Value() != 0 {
		t.Errorf("ideal zero-fill faults did %d reads", node.NIC.Reads.Value())
	}
	if res.Makespan != 0 {
		t.Errorf("ideal zero-fill faults cost %v; should be free", res.Makespan)
	}
}
