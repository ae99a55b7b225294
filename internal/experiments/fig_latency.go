package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/workload"
)

// mcThreads is memcached's server thread count: the paper uses 24 to
// stay within one NUMA socket.
const mcThreads = 24

// Fig13 reproduces Figure 13: memcached p99 latency (a) vs local-memory
// ratio at a fixed load, and (b) vs offered load at 50% local memory.
func Fig13(sc Scale) []*Table {
	a := &Table{
		ID:     "fig13a",
		Title:  fmt.Sprintf("Memcached p99 vs local memory (load %.0f Kops, 24 threads)", sc.MCFixedLoad/1e3),
		Header: []string{"local%", "system", "p99 µs", "mean µs", "achieved Kops"},
	}
	sysNames := []string{"Hermit", "DiLOS", "MageLib", "MageLnx"}
	type cell struct {
		localFrac float64
		load      float64
		name      string
	}
	var aCells []cell
	for _, localFrac := range []float64{0.9, 0.7, 0.5, 0.3} {
		for _, name := range sysNames {
			aCells = append(aCells, cell{localFrac, sc.MCFixedLoad, name})
		}
	}
	runMC := func(c cell) workload.LatencyResult {
		w := workload.NewMemcached(sc.MC)
		total := w.NumPages()
		n, tn := mustNode(presetCfg(c.name, mcThreads, total, core.LocalPages(total, c.localFrac), nil))
		tn.Prepopulate(int(total))
		return w.RunOpenLoop(n, mcThreads, c.load, sc.MCDuration, sc.Seed)
	}
	aRes := runCells(sc, len(aCells), func(i int) workload.LatencyResult { return runMC(aCells[i]) })
	for i, c := range aCells {
		res := aRes[i]
		a.AddRow(fmtPct(c.localFrac), c.name, fmtUs(res.P99Ns),
			fmtF(res.MeanNs/1e3), fmtF1(res.AchievedOps/1e3))
	}
	a.Notes = append(a.Notes,
		"paper: for a 200µs SLO Mage^LIB offloads 21% more memory than DiLOS and 36% more than Hermit; Mage^LNX reaches ~70-80%")

	b := &Table{
		ID:     "fig13b",
		Title:  "Memcached p99 vs offered load (50% local memory, 24 threads)",
		Header: []string{"load Kops", "system", "p99 µs", "achieved Kops"},
	}
	var bCells []cell
	for _, load := range sc.MCLoads {
		for _, name := range sysNames {
			bCells = append(bCells, cell{0.5, load, name})
		}
	}
	bRes := runCells(sc, len(bCells), func(i int) workload.LatencyResult { return runMC(bCells[i]) })
	for i, c := range bCells {
		b.AddRow(fmtF1(c.load/1e3), c.name, fmtUs(bRes[i].P99Ns), fmtF1(bRes[i].AchievedOps/1e3))
	}
	b.Notes = append(b.Notes,
		"paper: MAGE sustains 0.64 Mops more than Hermit and 0.28 Mops more than DiLOS under a 200µs p99 SLO")
	return []*Table{a, b}
}
