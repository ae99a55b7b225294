package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/faultinject"
	"mage/internal/workload"
)

// ColocateParams sizes the multi-tenant co-location sweep: how many
// tenants share one node, how much local DRAM the node holds relative to
// their aggregate WSS, and the shape of each tenant's workload. Tenant i
// runs coloKinds[i % 3], so every grid cell mixes skewed-random,
// sequential-scan, and phase-changing tenants.
type ColocateParams struct {
	// Tenants is the tenant-count sweep (2–8).
	Tenants []int
	// Ratios is local DRAM as a fraction of the aggregate WSS; below 1.0
	// the tenants compete for frames through the shared eviction pipeline.
	Ratios []float64
	// ThreadsPerTenant is each tenant's app thread count. Tenants may not
	// share cores (per-core TLBs cache tenant-local page numbers), so
	// max(Tenants) × ThreadsPerTenant must fit the machine.
	ThreadsPerTenant int

	Zipf workload.ZipfParams
	Seq  workload.SeqScanParams
	Gups workload.GUPSParams
}

// coloKinds is the repeating tenant-workload mix.
var coloKinds = []string{"zipf", "seqscan", "gups"}

func coloWorkload(p ColocateParams, kind string) workload.Workload {
	switch kind {
	case "zipf":
		return workload.NewZipf(p.Zipf)
	case "seqscan":
		return workload.NewSeqScan(p.Seq)
	default:
		return workload.NewGUPS(p.Gups)
	}
}

// coloSolo runs one tenant kind alone on a node provisioned at the same
// local-DRAM ratio — the isolation baseline its co-located p99 is
// compared against.
func coloSolo(sc Scale, kind string, ratio float64) core.RunResult {
	p := sc.Colo
	w := coloWorkload(p, kind)
	seed := faultinject.DeriveSeed(sc.Seed, "colocate", "solo", kind, fmt.Sprintf("r%g", ratio))
	return runStreams("MageLib", w, w.Streams(p.ThreadsPerTenant, seed), ratio, nil)
}

// coloRun builds an nt-tenant node at the given local-DRAM ratio and runs
// all tenants to completion, returning per-tenant results in id order.
func coloRun(sc Scale, nt int, ratio float64) []core.RunResult {
	p := sc.Colo
	wls := make([]workload.Workload, nt)
	specs := make([]core.TenantSpec, nt)
	var aggregate uint64
	for i := range wls {
		kind := coloKinds[i%len(coloKinds)]
		wls[i] = coloWorkload(p, kind)
		specs[i] = core.TenantSpec{
			Name:       fmt.Sprintf("t%d:%s", i, kind),
			AppThreads: p.ThreadsPerTenant,
			TotalPages: wls[i].NumPages(),
		}
		aggregate += wls[i].NumPages()
	}
	cfg := core.MageLib(nt*p.ThreadsPerTenant, aggregate, core.LocalPages(aggregate, ratio))
	node, err := core.NewNode(cfg, specs)
	if err != nil {
		panic(err)
	}
	tenants := node.Tenants()
	// Fair-share warm start: split the node's population budget among the
	// tenants in proportion to their working sets, mirroring the solo
	// baseline's per-tenant ratio.
	budget := uint64(node.PrepopBudget())
	for i, t := range tenants {
		t.Prepopulate(int(budget * wls[i].NumPages() / aggregate))
	}
	streams := make([][]core.AccessStream, nt)
	for i, w := range wls {
		seed := faultinject.DeriveSeed(sc.Seed, "colocate",
			fmt.Sprintf("n%d", nt), fmt.Sprintf("r%g", ratio), fmt.Sprintf("t%d", i))
		streams[i] = w.Streams(p.ThreadsPerTenant, seed)
	}
	return node.RunTenants(streams, core.RunOptions{})
}

// Colocate sweeps tenant count × local-DRAM ratio on one shared Mage^LIB
// node. Victim selection is node-global, so each tenant's fault storm
// evicts its neighbours' cold pages; the table reports per-tenant fault
// latency, eviction counts, and an isolation metric — the tenant's
// co-located p99 over its solo p99 at the same provisioning ratio.
func Colocate(sc Scale) []*Table {
	p := sc.Colo
	t := &Table{
		ID: "colocate",
		Title: fmt.Sprintf("Co-located tenants, Mage^LIB (%d threads/tenant; local = ratio × aggregate WSS)",
			p.ThreadsPerTenant),
		Header: []string{"tenants", "local/WSS", "tenant", "faults", "evicted",
			"p99 µs", "solo p99 µs", "p99 inflation"},
	}

	// Solo baselines: one per (kind, ratio).
	type soloKey struct {
		kind  string
		ratio float64
	}
	var solos []soloKey
	for _, r := range p.Ratios {
		for _, k := range coloKinds {
			solos = append(solos, soloKey{k, r})
		}
	}
	soloRes := runCells(sc, len(solos), func(i int) core.RunResult {
		return coloSolo(sc, solos[i].kind, solos[i].ratio)
	})
	soloP99 := make(map[soloKey]int64, len(solos))
	for i, k := range solos {
		soloP99[k] = soloRes[i].Metrics.FaultP99Ns
	}

	type coloCell struct {
		nt    int
		ratio float64
	}
	var cells []coloCell
	for _, r := range p.Ratios {
		for _, nt := range p.Tenants {
			cells = append(cells, coloCell{nt, r})
		}
	}
	results := runCells(sc, len(cells), func(i int) []core.RunResult {
		return coloRun(sc, cells[i].nt, cells[i].ratio)
	})
	for ci, c := range cells {
		for i, res := range results[ci] {
			kind := coloKinds[i%len(coloKinds)]
			m := res.Metrics
			sp99 := soloP99[soloKey{kind, c.ratio}]
			infl := "-"
			if sp99 > 0 {
				infl = fmtF(float64(m.FaultP99Ns) / float64(sp99))
			}
			t.AddRow(fmt.Sprintf("%d", c.nt), fmtPct(c.ratio),
				fmt.Sprintf("t%d:%s", i, kind),
				fmt.Sprintf("%d", m.MajorFaults),
				fmt.Sprintf("%d", m.EvictedPages),
				fmtUs(m.FaultP99Ns), fmtUs(sp99), infl)
		}
	}
	t.Notes = append(t.Notes,
		"eviction is node-global: a tenant's p99 inflation measures its neighbours' pressure on the shared frame pool, not its own overcommit",
		"seqscan inflates least (prefetch hides refaults); zipf and gups trade p99 through the shared LRU as tenant count grows")
	return []*Table{t}
}
