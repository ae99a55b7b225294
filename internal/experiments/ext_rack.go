package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/faultinject"
	"mage/internal/sim"
)

// RackScale sizes the rack-scale cross-node eviction sweeps (extrack).
type RackScale struct {
	// NodeCounts is the rack sizes for the placement sweep.
	NodeCounts []int
	// DegradeNodes is the fixed fleet size for the link-degradation sweep.
	DegradeNodes int
	// AccessesPerThread is the closed-loop run length on pressured nodes.
	AccessesPerThread int
}

// Per-node shape of the rack workload. Pressured ("hot") nodes churn a
// working set 8× their local DRAM; idle ("cold") nodes keep everything
// resident and touch a tiny footprint, leaving a large lendable pool.
const (
	rackPagesPerNode = 2048
	rackHotLocal     = 256
	rackBalLocal     = 1024
	rackHotThreads   = 2
	rackColdAccesses = 200
	rackColdFootprt  = 64
)

// ExtRack is the rack-scale sweep for cross-node eviction: N nodes on a
// simulated fabric, where a node under memory pressure offers eviction
// victims to neighbours with free frames before paying a swap writeback.
// Two grids:
//
//   - a placement sweep (balanced vs skewed tenant placement, borrow
//     on/off, 4–16 nodes), showing that borrowing converts free
//     neighbour DRAM into avoided writebacks only when placement is
//     imbalanced;
//   - a link-degradation sweep on the skewed mix, showing borrowing
//     degrade gracefully — throttled by slow links, abandoned across
//     severed ones — while the swap path carries the load.
//
// Every cell is one self-contained rack on a private engine; stream and
// injector seeds derive from the cell identity, so the tables render
// byte-identical at any worker count.
func ExtRack(sc Scale) []*Table {
	return []*Table{rackPlacementSweep(sc), rackDegradeSweep(sc)}
}

// rackAccList builds a deterministic pseudo-random access list
// (splitmix64 over the page range, ~50% writes).
func rackAccList(pages uint64, count int, seed int64) []core.Access {
	accs := make([]core.Access, 0, count)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := 0; i < count; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		accs = append(accs, core.Access{Page: x % pages, Write: x&2 == 0, Compute: 200})
	}
	return accs
}

// rackAgg is one rack run reduced to whole-fleet totals. Node-shared
// counters (NIC writes, borrow ledger) are read once per node.
type rackAgg struct {
	swapWrites uint64
	borrows    uint64
	fetches    uint64
	reclaims   uint64
	makespan   sim.Time
}

func aggRack(res [][]core.RunResult) rackAgg {
	var a rackAgg
	for _, node := range res {
		for ti := range node {
			m := &node[ti].Metrics
			if ti == 0 {
				a.swapWrites += m.RdmaWrites
				a.borrows += m.BorrowsOut
				a.reclaims += m.BorrowReclaims
			}
			a.fetches += m.BorrowFetches
			if node[ti].Makespan > a.makespan {
				a.makespan = node[ti].Makespan
			}
		}
	}
	return a
}

func (a rackAgg) row(prefix ...string) []string {
	return append(prefix,
		fmt.Sprintf("%d", a.swapWrites),
		fmt.Sprintf("%d", a.borrows),
		fmt.Sprintf("%d", a.fetches),
		fmt.Sprintf("%d", a.reclaims),
		fmtF(float64(a.makespan)/1e6))
}

var rackResultCols = []string{"swap writes", "borrows out", "fetches", "reclaims", "makespan ms"}

// runRackCell builds and runs one rack. placement "balanced" gives every
// node the same mid pressure (no lendable headroom anywhere); "skewed"
// makes the first half of the fleet hot and the second half idle hosts.
func runRackCell(sc Scale, nodes int, placement string, borrow bool,
	plans map[[2]int]*faultinject.Plan, table string) rackAgg {
	specs := make([]core.NodeSpec, nodes)
	streams := make([][][]core.AccessStream, nodes)
	for i := range specs {
		hot := placement == "balanced" || i < nodes/2
		threads, local := rackHotThreads, rackHotLocal
		if placement == "balanced" {
			local = rackBalLocal
		}
		if !hot {
			threads, local = 1, rackPagesPerNode
		}
		cfg, err := core.Preset("MageLib", threads, rackPagesPerNode, local)
		if err != nil {
			panic(err)
		}
		cfg.Name = fmt.Sprintf("n%d", i)
		specs[i] = core.NodeSpec{Cfg: cfg}
		th := make([]core.AccessStream, threads)
		for ti := range th {
			seed := faultinject.DeriveSeed(sc.Seed, "extrack", table, placement,
				fmt.Sprintf("%d/%d.%d", nodes, i, ti))
			if hot {
				th[ti] = &core.SliceStream{Accs: rackAccList(rackPagesPerNode, sc.Rack.AccessesPerThread, seed)}
			} else {
				th[ti] = &core.SliceStream{Accs: rackAccList(rackColdFootprt, rackColdAccesses, seed)}
			}
		}
		streams[i] = [][]core.AccessStream{th}
	}
	r, err := core.NewRack(core.RackConfig{Nodes: specs, Borrow: borrow, LinkPlans: plans})
	if err != nil {
		panic(err)
	}
	return aggRack(r.Run(streams, core.RunOptions{}))
}

func rackPlacementSweep(sc Scale) *Table {
	t := &Table{
		ID:     "extrack",
		Title:  "Cross-node eviction: placement mixes, borrow on/off (MageLib nodes)",
		Header: append([]string{"nodes", "placement", "borrow"}, rackResultCols...),
	}
	type cell struct {
		nodes     int
		placement string
		borrow    bool
	}
	var cells []cell
	for _, n := range sc.Rack.NodeCounts {
		for _, pl := range []string{"balanced", "skewed"} {
			for _, b := range []bool{false, true} {
				cells = append(cells, cell{n, pl, b})
			}
		}
	}
	results := runCells(sc, len(cells), func(i int) rackAgg {
		c := cells[i]
		return runRackCell(sc, c.nodes, c.placement, c.borrow, nil, "placement")
	})
	for i, c := range cells {
		t.AddRow(results[i].row(fmt.Sprintf("%d", c.nodes), c.placement, fmt.Sprintf("%v", c.borrow))...)
	}
	t.Notes = append(t.Notes,
		"skewed placement: first half of the fleet churns 8x its DRAM while the second half idles; borrowing moves victims over the fabric instead of swapping them",
		"balanced placement leaves no node with lendable headroom (budget = free - 2x high watermark), so borrow on/off rows should barely differ")
	return t
}

// rackDegradeLevels is the link-quality ladder for the degradation
// sweep. mk is nil for healthy links (no injector attached).
var rackDegradeLevels = []struct {
	label string
	mk    func(seed int64) faultinject.Plan
}{
	{"healthy", nil},
	{"slow-4x", func(s int64) faultinject.Plan {
		return faultinject.Plan{Seed: s, Degraded: []faultinject.Window{{Start: 0, End: 1 << 60}}, DegradeFactor: 0.25}
	}},
	{"lossy-2%", func(s int64) faultinject.Plan {
		return faultinject.Plan{Seed: s, ReadFailProb: 0.02, WriteFailProb: 0.02}
	}},
	{"severed", func(s int64) faultinject.Plan {
		return faultinject.Plan{Seed: s, Outages: []faultinject.Window{{Start: 0, End: 1 << 60}}}
	}},
}

func rackDegradeSweep(sc Scale) *Table {
	nodes := sc.Rack.DegradeNodes
	t := &Table{
		ID: "extrack-degrade",
		Title: fmt.Sprintf("Cross-node eviction under link degradation (%d MageLib nodes, skewed placement)",
			nodes),
		Header: append([]string{"link", "borrow"}, rackResultCols...),
	}
	type cell struct {
		level  int
		borrow bool
	}
	var cells []cell
	for li := range rackDegradeLevels {
		for _, b := range []bool{false, true} {
			cells = append(cells, cell{li, b})
		}
	}
	results := runCells(sc, len(cells), func(i int) rackAgg {
		c := cells[i]
		lv := rackDegradeLevels[c.level]
		var plans map[[2]int]*faultinject.Plan
		if lv.mk != nil {
			plans = make(map[[2]int]*faultinject.Plan)
			for a := 0; a < nodes; a++ {
				for b := a + 1; b < nodes; b++ {
					p := lv.mk(faultinject.DeriveSeed(sc.Seed, "extrack-degrade", lv.label,
						fmt.Sprintf("%d-%d", a, b)))
					plans[[2]int{a, b}] = &p
				}
			}
		}
		return runRackCell(sc, nodes, "skewed", c.borrow, plans, "degrade-"+lv.label)
	})
	for i, c := range cells {
		t.AddRow(results[i].row(rackDegradeLevels[c.level].label, fmt.Sprintf("%v", c.borrow))...)
	}
	t.Notes = append(t.Notes,
		"healthy links: borrowing absorbs most of the pressured nodes' writebacks; the reduction is the headline win",
		"severed links remove every candidate host, so the borrow=true row must collapse onto the borrow=false baseline",
		"lossy links charge failed transfers to the borrow path (alloc + rollback) without stalling eviction: the swap fallback always completes")
	return t
}
