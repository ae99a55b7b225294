package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/sim"
	"mage/internal/workload"
)

// offloadSweep runs one workload across offload fractions on the given
// systems and tabulates jobs/hour plus the throughput drop relative to
// each system's own all-local baseline.
func offloadSweep(id, title string, sc Scale, w func() workload.Workload, systems []string, threads int, mutate func(*core.Config)) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{"far-mem%"}, headerPairs(systems)...),
	}
	// Cell grid: one all-local baseline per system, then one cell per
	// (offload, system) point; the 0% row reuses the baseline cells.
	type cell struct {
		off  float64
		name string
	}
	cells := make([]cell, 0, len(systems)*(1+len(sc.Offloads)))
	for _, name := range systems {
		cells = append(cells, cell{0, name})
	}
	for _, off := range sc.Offloads {
		for _, name := range systems {
			cells = append(cells, cell{off, name})
		}
	}
	cellJPH := runCells(sc, len(cells), func(i int) float64 {
		c := cells[i]
		wl := w()
		res := runStreams(c.name, wl, wl.Streams(threads, sc.Seed), 1-c.off, mutate)
		return res.JobsPerHour()
	})
	base := map[string]float64{}
	for i, name := range systems {
		base[name] = cellJPH[i]
	}
	points := append([]float64{0}, sc.Offloads...)
	for pi, off := range points {
		row := []string{fmtPct(off)}
		for si, name := range systems {
			// Row pi is the pi-th block of len(systems) cells; block 0 is
			// the all-local baselines, which double as the 0% row.
			jph := cellJPH[pi*len(systems)+si]
			drop := 0.0
			if base[name] > 0 {
				drop = 1 - jph/base[name]
			}
			row = append(row, fmtF1(jph), fmtPct(drop))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d app threads; jobs/h from makespan of the slowest thread; drop%% vs each system's 100%%-local run", threads))
	return t
}

func headerPairs(systems []string) []string {
	var h []string
	for _, s := range systems {
		h = append(h, s+" j/h", s+" drop")
	}
	return h
}

// Fig1 reproduces Figure 1: GapBS PageRank throughput as a function of
// the percentage of far memory, 48 threads, all systems against the
// ideal baseline.
func Fig1(sc Scale) []*Table {
	return []*Table{offloadSweep("fig1",
		"GapBS PageRank throughput vs far-memory fraction (48 threads)",
		sc, func() workload.Workload { return workload.NewGapBS(sc.GapBS) },
		systemNames, sc.Threads, nil)}
}

// Fig3 reproduces Figure 3: the ideal-vs-Hermit collapse for the two
// random-access applications.
func Fig3(sc Scale) []*Table {
	systems := []string{"Ideal", "Hermit"}
	return []*Table{
		offloadSweep("fig3a", "GapBS PageRank: ideal vs Hermit (48 threads)",
			sc, func() workload.Workload { return workload.NewGapBS(sc.GapBS) },
			systems, sc.Threads, nil),
		offloadSweep("fig3b", "XSBench: ideal vs Hermit (48 threads)",
			sc, func() workload.Workload { return workload.NewXSBench(sc.XS) },
			systems, sc.Threads, nil),
	}
}

// Fig9 reproduces Figure 9: application throughput with varying local
// memory for GapBS and XSBench across all systems.
func Fig9(sc Scale) []*Table {
	return []*Table{
		offloadSweep("fig9a", "GapBS throughput vs local memory (48 threads)",
			sc, func() workload.Workload { return workload.NewGapBS(sc.GapBS) },
			systemNames, sc.Threads, nil),
		offloadSweep("fig9b", "XSBench throughput vs local memory (48 threads)",
			sc, func() workload.Workload { return workload.NewXSBench(sc.XS) },
			systemNames, sc.Threads, nil),
	}
}

// Fig4 reproduces Figure 4: sequential scan under Hermit and DiLOS with
// prefetching, against their shared ideal baseline.
func Fig4(sc Scale) []*Table {
	mutate := func(c *core.Config) {
		if !c.Ideal {
			c.Prefetch = true
		}
	}
	return []*Table{offloadSweep("fig4",
		"Sequential scan (prefetch on): ideal vs Hermit vs DiLOS (48 threads)",
		sc, func() workload.Workload { return workload.NewSeqScan(sc.Seq) },
		[]string{"Ideal", "Hermit", "DiLOS"}, sc.Threads, mutate)}
}

// Fig10 reproduces Figure 10: the sequential scan with and without
// prefetching across all systems (Mage^LNX lacks prefetch support and is
// reported without it, as in the paper).
func Fig10(sc Scale) []*Table {
	t := &Table{
		ID:     "fig10",
		Title:  "Sequential scan: prefetching on/off (48 threads)",
		Header: []string{"system", "prefetch", "far-mem%", "Mops/s", "faults", "drop"},
	}
	w := func() workload.Workload { return workload.NewSeqScan(sc.Seq) }
	off := 0.1
	type cell struct {
		name string
		pf   bool
	}
	var cells []cell
	for _, name := range []string{"Ideal", "Hermit", "DiLOS", "MageLib", "MageLnx"} {
		for _, pf := range []bool{false, true} {
			if pf && (name == "Ideal" || name == "MageLnx") {
				continue
			}
			cells = append(cells, cell{name, pf})
		}
	}
	type point struct {
		res  core.RunResult
		drop float64
	}
	results := runCells(sc, len(cells), func(i int) point {
		c := cells[i]
		mutate := func(cf *core.Config) {
			cf.Prefetch = c.pf
		}
		wb, wl := w(), w()
		baseRes := runStreams(c.name, wb, wb.Streams(sc.Threads, sc.Seed), 1, mutate)
		res := runStreams(c.name, wl, wl.Streams(sc.Threads, sc.Seed), 1-off, mutate)
		return point{res, 1 - res.JobsPerHour()/baseRes.JobsPerHour()}
	})
	for i, c := range cells {
		p := results[i]
		t.AddRow(c.name, fmt.Sprintf("%v", c.pf), fmtPct(off),
			fmtF(p.res.OpsPerSec()/1e6),
			fmt.Sprintf("%d", p.res.Metrics.MajorFaults), fmtPct(p.drop))
	}
	t.Notes = append(t.Notes, "paper: prefetching cuts Mage^LIB faults ~4x and recovers near-ideal throughput; helps DiLOS little; hurts Hermit")
	return []*Table{t}
}

// Fig12 reproduces Figure 12: Metis map/reduce phase throughput vs
// offloading. The BSP barrier between phases is the working-set shift.
func Fig12(sc Scale) []*Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Metis map and reduce phase throughput vs far memory (48 threads)",
		Header: []string{"far-mem%", "system", "map Mops/s", "reduce Mops/s", "switch@ms", "makespan ms"},
	}
	type cell struct {
		off  float64
		name string
	}
	var cells []cell
	for _, off := range []float64{0, 0.1, 0.2} {
		for _, name := range systemNames {
			cells = append(cells, cell{off, name})
		}
	}
	type point struct {
		switchAt sim.Time
		makespan sim.Time
	}
	results := runCells(sc, len(cells), func(i int) point {
		c := cells[i]
		// The map phase's input starts resident and the rest is
		// zero-fill (runCfg), so offloading displaces what the reduce
		// phase will need: the paper's phase-change setup.
		m := workload.NewMetis(sc.Metis)
		set := m.Streams(sc.Threads, sc.Seed)
		res := runStreams(c.name, m, set, 1-c.off, nil)
		return point{switchAt: workload.PhaseSwitchAt(set), makespan: res.Makespan}
	})
	for i, c := range cells {
		switchAt, makespan := results[i].switchAt, results[i].makespan
		mapOps := float64(0)
		redOps := float64(0)
		// Access counts per phase derive from the params.
		perThreadMap := float64(sc.Metis.InputPages) / float64(sc.Threads) * float64(1+sc.Metis.EmitsPerInputPage)
		perThreadRed := float64(sc.Metis.IntermediatePages) / float64(sc.Threads) * 1.125
		if switchAt > 0 {
			mapOps = perThreadMap * float64(sc.Threads) / switchAt.Seconds()
		}
		if makespan > switchAt {
			redOps = perThreadRed * float64(sc.Threads) / (makespan - switchAt).Seconds()
		}
		t.AddRow(fmtPct(c.off), c.name, fmtF(mapOps/1e6), fmtF(redOps/1e6),
			fmtF1(switchAt.Seconds()*1e3), fmtF1(makespan.Seconds()*1e3))
	}
	t.Notes = append(t.Notes, "paper: after the phase change MAGE loses ~14% while Hermit/DiLOS lose 61%/41%")
	return []*Table{t}
}

// Fig11 reproduces Figure 11: the GUPS timeline through its phase change
// at 85% local memory.
func Fig11(sc Scale) []*Table {
	t := &Table{
		ID:     "fig11",
		Title:  "GUPS throughput timeline across the phase change (85% local)",
		Header: []string{"system", "pre-change Mops/s", "post-change min", "recovered Mops/s", "stall ms"},
	}
	type point struct{ pre, minPost, rec, stall float64 }
	results := runCells(sc, len(systemNames), func(i int) point {
		g := workload.NewGUPS(sc.Gups)
		total := g.NumPages()
		n, tn := mustNode(presetCfg(systemNames[i], sc.Threads, total, core.LocalPages(total, 0.85), nil))
		// Phase 1's region (the first 80% of the WSS) starts resident and
		// fits within the 85% local quota, so the first phase runs nearly
		// fault-free — the transition is what gets measured.
		tn.PrepopulateFront(int(total))
		res := n.RunTenants([][]core.AccessStream{g.Streams(sc.Threads, sc.Seed)},
			core.RunOptions{SampleEvery: res11SamplePeriod})[0]
		pre, minPost, rec, stall := timelineStats(res)
		return point{pre, minPost, rec, stall}
	})
	for i, name := range systemNames {
		p := results[i]
		t.AddRow(name, fmtF(p.pre/1e6), fmtF(p.minPost/1e6), fmtF(p.rec/1e6), fmtF1(p.stall))
	}
	t.Notes = append(t.Notes,
		"paper: Hermit/DiLOS nearly stall >2s after the change; MAGE dips briefly and recovers")
	return []*Table{t}
}

const res11SamplePeriod = 100 * 1000 // 100µs in sim.Time units (ns)

// timelineStats extracts the phase-change signature from the sampled
// series: steady pre-change rate, the post-change minimum, the recovered
// rate, and how long throughput stayed below half the pre-change rate.
func timelineStats(res core.RunResult) (pre, minPost, recovered, stallMs float64) {
	s := res.Series
	if s == nil || s.Len() < 4 {
		return 0, 0, 0, 0
	}
	n := s.Len()
	// Pre-change rate: median of the first third.
	third := n / 3
	if third == 0 {
		third = 1
	}
	var sum float64
	for i := 0; i < third; i++ {
		sum += s.V[i]
	}
	pre = sum / float64(third)
	// Find the global minimum after the first third.
	minPost = s.V[third]
	minIdx := third
	for i := third; i < n; i++ {
		if s.V[i] < minPost {
			minPost = s.V[i]
			minIdx = i
		}
	}
	// Recovered rate: average of the tail after the minimum.
	cnt := 0
	for i := minIdx; i < n; i++ {
		recovered += s.V[i]
		cnt++
	}
	if cnt > 0 {
		recovered /= float64(cnt)
	}
	// Stall: total time below 50% of pre.
	for i := 1; i < n; i++ {
		if s.V[i] < pre/2 {
			stallMs += float64(s.T[i]-s.T[i-1]) / 1e6
		}
	}
	return pre, minPost, recovered, stallMs
}
