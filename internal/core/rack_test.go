package core

import (
	"reflect"
	"testing"

	"mage/internal/faultinject"
	"mage/internal/nic"
	"mage/internal/pgtable"
	"mage/internal/sim"
)

// rackNodeCfg is a small MageLib-shaped node for rack tests: pipelined
// eviction and the Linux swap map, so every evicted page needs a
// writeback — the path cross-node eviction is meant to shorten.
func rackNodeCfg(name string, threads int, total uint64, local int) Config {
	return Config{
		Name:             name,
		Sockets:          1,
		CoresPerSocket:   8,
		AppThreads:       threads,
		TotalPages:       total,
		LocalMemPages:    local,
		EvictorThreads:   2,
		Pipelined:        true,
		BatchSize:        32,
		TLBBatch:         32,
		Accounting:       AcctPartitioned,
		HonorAccessedBit: true,
		Allocator:        AllocMultiLayer,
		Swap:             SwapGlobalMap,
		PTLock:           pgtable.LockPerPTE,
		Stack:            nic.StackLibOS,
	}
}

// rackStream builds a deterministic pseudo-random access list over a
// page range (splitmix-style, no global RNG state).
func rackStream(pages uint64, count int, seed uint64) []Access {
	accs := make([]Access, 0, count)
	x := seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := 0; i < count; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		accs = append(accs, Access{Page: x % pages, Write: x&2 == 0, Compute: 200})
	}
	return accs
}

func streamsOf(lists ...[]Access) []AccessStream {
	out := make([]AccessStream, len(lists))
	for i, l := range lists {
		out[i] = &SliceStream{Accs: l}
	}
	return out
}

// pressuredPlusIdleRack is the canonical borrow scenario: node 0 churns a
// working set far beyond its local DRAM while node 1 sits on a mostly
// free pool.
func pressuredPlusIdleRack(t *testing.T, borrow bool) *Rack {
	t.Helper()
	r, err := NewRack(RackConfig{
		Nodes: []NodeSpec{
			{Cfg: rackNodeCfg("hot", 2, 2048, 256)},
			{Cfg: rackNodeCfg("idle", 1, 2048, 2048)},
		},
		Borrow: borrow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pressuredPlusIdleStreams() [][][]AccessStream {
	return [][][]AccessStream{
		{streamsOf(rackStream(2048, 3000, 1), rackStream(2048, 3000, 2))},
		{streamsOf(rackStream(64, 200, 3))},
	}
}

// TestRackBorrowReducesSwapWritebacks is the headline property: with a
// neighbour able to host victims, the pressured node's swap writebacks
// drop, and every lent page is accounted for (fetched home, reclaimed,
// or still hosted).
func TestRackBorrowReducesSwapWritebacks(t *testing.T) {
	run := func(borrow bool) ([][]RunResult, *Rack) {
		r := pressuredPlusIdleRack(t, borrow)
		return r.Run(pressuredPlusIdleStreams(), RunOptions{}), r
	}
	off, _ := run(false)
	on, r := run(true)

	if off[0][0].Metrics.BorrowsOut != 0 {
		t.Fatalf("borrow disabled but BorrowsOut = %d", off[0][0].Metrics.BorrowsOut)
	}
	mOn, mOff := on[0][0].Metrics, off[0][0].Metrics
	if mOn.BorrowsOut == 0 {
		t.Fatal("borrow enabled under pressure next to an idle node, but no page was lent")
	}
	if mOn.RdmaWrites >= mOff.RdmaWrites {
		t.Fatalf("borrow did not reduce swap writebacks: %d writes with borrow, %d without",
			mOn.RdmaWrites, mOff.RdmaWrites)
	}
	hot, idle := r.Nodes[0], r.Nodes[1]
	if got, want := idle.BorrowsHosted.Value(), hot.BorrowsOut.Value(); got != want {
		t.Fatalf("host accepted %d pages but owner lent %d", got, want)
	}
	fetched := hot.Tenants()[0].BorrowFetches.Value()
	reclaimed := idle.BorrowReclaims.Value()
	live := uint64(idle.HostedPages())
	if hot.BorrowsOut.Value() != fetched+reclaimed+live {
		t.Fatalf("borrow ledger does not balance: out=%d fetched=%d reclaimed=%d live=%d",
			hot.BorrowsOut.Value(), fetched, reclaimed, live)
	}
}

// TestRackSeveredLinkFallsBackToSwap pins the outage policy: a severed
// link removes the neighbour from host selection, and eviction falls
// back to the ordinary swap writeback instead of stalling.
func TestRackSeveredLinkFallsBackToSwap(t *testing.T) {
	r, err := NewRack(RackConfig{
		Nodes: []NodeSpec{
			{Cfg: rackNodeCfg("hot", 2, 2048, 256)},
			{Cfg: rackNodeCfg("idle", 1, 2048, 2048)},
		},
		Borrow: true,
		LinkPlans: map[[2]int]*faultinject.Plan{
			{0, 1}: {Seed: 7, Outages: []faultinject.Window{{Start: 0, End: 1 << 60}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(pressuredPlusIdleStreams(), RunOptions{})
	m := res[0][0].Metrics
	if m.BorrowsOut != 0 {
		t.Fatalf("lent %d pages across a severed link", m.BorrowsOut)
	}
	if m.RdmaWrites == 0 {
		t.Fatal("no swap writebacks despite pressure and an unusable neighbour")
	}
	if m.MajorFaults == 0 || res[0][0].Makespan <= 0 {
		t.Fatalf("run did not complete under a severed link: %+v", m)
	}
}

// TestRackReclaimUnderHostPressure drives the host into pressure after
// it has accepted guests: the guests must go home (owner-paid swap
// writeback) before the host evicts its own pages.
func TestRackReclaimUnderHostPressure(t *testing.T) {
	r, err := NewRack(RackConfig{
		Nodes: []NodeSpec{
			{Cfg: rackNodeCfg("hot", 2, 2048, 256)},
			{Cfg: rackNodeCfg("latecomer", 1, 4096, 640)},
		},
		Borrow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The latecomer idles long enough for the hot node to lend it pages,
	// then floods its own working set to create pressure at the host.
	late := append([]Access{{Skip: true, Wait: func(p *sim.Proc) { p.Sleep(20 * sim.Millisecond) }}},
		rackStream(4096, 6000, 9)...)
	res := r.Run([][][]AccessStream{
		{streamsOf(rackStream(2048, 6000, 1), rackStream(2048, 6000, 2))},
		{streamsOf(late)},
	}, RunOptions{})

	host := r.Nodes[1]
	if r.Nodes[0].BorrowsOut.Value() == 0 {
		t.Fatal("scenario never lent a page; cannot exercise reclaim")
	}
	if host.BorrowReclaims.Value() == 0 {
		t.Fatalf("host under pressure (evicted %d own pages) never pushed its %d guests home",
			res[1][0].Metrics.EvictedPages, host.HostedPages())
	}
	fetched := r.Nodes[0].Tenants()[0].BorrowFetches.Value()
	if r.Nodes[0].BorrowsOut.Value() != fetched+host.BorrowReclaims.Value()+uint64(host.HostedPages()) {
		t.Fatalf("borrow ledger does not balance after reclaim: out=%d fetched=%d reclaimed=%d live=%d",
			r.Nodes[0].BorrowsOut.Value(), fetched, host.BorrowReclaims.Value(), host.HostedPages())
	}
}

// TestRackReplays: the full cross-node run — borrows, reclaims, fabric
// contention and all — produces identical results when run again.
func TestRackReplays(t *testing.T) {
	run := func() [][]RunResult {
		return pressuredPlusIdleRack(t, true).Run(pressuredPlusIdleStreams(), RunOptions{})
	}
	base := run()
	if base[0][0].Metrics.BorrowsOut == 0 {
		t.Fatal("determinism scenario exercises no borrows")
	}
	if got := run(); !reflect.DeepEqual(got, base) {
		t.Fatalf("rack run diverges on replay:\n got %+v\nwant %+v", got[0][0].Metrics, base[0][0].Metrics)
	}
}

// TestRackSingleNodeMatchesStandalone pins the degenerate case: a
// one-node rack (even with Borrow enabled — there is no one to borrow
// from) produces results identical to the same node built standalone.
func TestRackSingleNodeMatchesStandalone(t *testing.T) {
	mkStreams := func() [][]AccessStream {
		return [][]AccessStream{streamsOf(rackStream(2048, 2000, 5), rackStream(2048, 2000, 6))}
	}
	n, err := NewNode(rackNodeCfg("solo", 2, 2048, 256), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := n.RunTenants(mkStreams(), RunOptions{})

	r, err := NewRack(RackConfig{
		Nodes:  []NodeSpec{{Cfg: rackNodeCfg("solo", 2, 2048, 256)}},
		Borrow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Run([][][]AccessStream{mkStreams()}, RunOptions{})
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("one-node rack diverges from standalone node:\n got %+v\nwant %+v",
			got[0][0].Metrics, want[0].Metrics)
	}
}
