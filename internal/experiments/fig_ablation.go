package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/workload"
)

// ablationSteps builds the Figure 17 configuration ladder: DiLOS as the
// baseline, then each MAGE technique applied cumulatively.
func ablationSteps(threads int, total uint64, local int) []core.Config {
	base := core.DiLOS(threads, total, local)
	base.Name = "Baseline"

	pip := base
	pip.Name = "+Pipelined"
	pip.Pipelined = true
	pip.SyncEviction = false
	pip.BatchSize = 256
	pip.TLBBatch = 256

	lruP := pip
	lruP.Name = "+LRU-part"
	lruP.Accounting = core.AcctPartitioned

	ml := lruP
	ml.Name = "+MultiLayer"
	ml.Allocator = core.AllocMultiLayer

	return []core.Config{base, pip, lruP, ml}
}

// Fig17 reproduces Figure 17: the cumulative technique breakdown
// (Baseline → +Pipelined → +LRU partitioning → +MultiLayer allocator) on
// GapBS and XSBench across offload levels.
func Fig17(sc Scale) []*Table {
	var out []*Table
	for _, app := range []struct {
		id, title string
		mk        func() workload.Workload
	}{
		{"fig17a", "GapBS technique breakdown (48 threads)",
			func() workload.Workload { return workload.NewGapBS(sc.GapBS) }},
		{"fig17b", "XSBench technique breakdown (48 threads)",
			func() workload.Workload { return workload.NewXSBench(sc.XS) }},
	} {
		t := &Table{
			ID:     app.id,
			Title:  app.title,
			Header: []string{"far-mem%", "Baseline j/h", "+Pipelined j/h", "+LRU-part j/h", "+MultiLayer j/h"},
		}
		offs := []float64{0.2, 0.4, 0.6}
		const steps = 4 // Baseline, +Pipelined, +LRU-part, +MultiLayer
		jph := runCells(sc, len(offs)*steps, func(i int) float64 {
			off, step := offs[i/steps], i%steps
			w0 := app.mk()
			local := core.LocalPages(w0.NumPages(), 1-off)
			cfg := ablationSteps(sc.Threads, w0.NumPages(), local)[step]
			w := app.mk()
			res := runCfg(cfg, w, w.Streams(sc.Threads, sc.Seed))
			return res.JobsPerHour()
		})
		for oi, off := range offs {
			row := []string{fmtPct(off)}
			for step := 0; step < steps; step++ {
				row = append(row, fmtF1(jph[oi*steps+step]))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"paper: at 20% offload pipelining alone gives 1.58x (GapBS) / 1.74x (XSBench); LRU partitioning and the multi-layer allocator add ~5%/8% more offloadable memory")
		out = append(out, t)
	}
	return out
}

// Fig18 reproduces Figure 18: (a) the eviction batch-size sweep for
// pipelined vs non-pipelined designs, and (b) the 4-thread regression
// test.
func Fig18(sc Scale) []*Table {
	a := &Table{
		ID:     "fig18a",
		Title:  "Eviction batch-size sweep on GapBS, 20% offload (48 threads)",
		Header: []string{"batch", "pipelined j/h", "non-pipelined j/h"},
	}
	w := func() workload.Workload { return workload.NewGapBS(sc.GapBS) }
	total := w().NumPages()
	local := core.LocalPages(total, 0.8)
	batches := []int{32, 64, 128, 256, 512}
	type point struct{ pip, seq float64 }
	results := runCells(sc, len(batches), func(i int) point {
		batch := batches[i]
		pip := core.MageLib(sc.Threads, total, local)
		pip.BatchSize = batch
		pip.TLBBatch = batch
		pip.Name = fmt.Sprintf("pip-%d", batch)
		seq := core.MageLib(sc.Threads, total, local)
		seq.Pipelined = false
		seq.BatchSize = batch
		seq.TLBBatch = batch
		seq.Name = fmt.Sprintf("seq-%d", batch)
		wp, ws := w(), w()
		rp := runCfg(pip, wp, wp.Streams(sc.Threads, sc.Seed))
		rs := runCfg(seq, ws, ws.Streams(sc.Threads, sc.Seed))
		return point{rp.JobsPerHour(), rs.JobsPerHour()}
	})
	for i, batch := range batches {
		a.AddRow(fmt.Sprintf("%d", batch), fmtF1(results[i].pip), fmtF1(results[i].seq))
	}
	a.Notes = append(a.Notes,
		"paper: pipelined peaks at batch 128-256 where RDMA wait fully hides TLB latency; non-pipelined gains nothing from larger batches")

	b := offloadSweep("fig18b",
		fmt.Sprintf("Regression test: GapBS at %d threads (low fault-in demand)", sc.RegressionThreads),
		sc, w, systemNames, sc.RegressionThreads, nil)
	b.Notes = append(b.Notes,
		"paper: with 4 threads all systems are comparable; MAGE's throughput-oriented design causes no low-load regression")
	return []*Table{a, b}
}

// Table1 renders the application catalog.
func Table1(Scale) []*Table {
	t := &Table{
		ID:     "table1",
		Title:  "Applications used to evaluate MAGE",
		Header: []string{"category", "application", "dataset", "paper size", "characteristic"},
	}
	for _, e := range workload.Table1() {
		t.AddRow(e.Category, e.Application, e.Dataset, e.Size, e.Characteristic)
	}
	return []*Table{t}
}

// Table2 reproduces Table 2: all batch applications at 100% local memory
// — the virtualization / maturity cost with no offloading, relative to
// the best system (Hermit, bare metal).
func Table2(sc Scale) []*Table {
	t := &Table{
		ID:     "table2",
		Title:  "100% local memory performance (no offloading)",
		Header: []string{"workload", "Hermit", "DiLOS", "MageLib", "MageLnx", "unit"},
	}
	apps := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"GapBS", func() workload.Workload { return workload.NewGapBS(sc.GapBS) }},
		{"XSBench", func() workload.Workload { return workload.NewXSBench(sc.XS) }},
		{"SeqScan", func() workload.Workload { return workload.NewSeqScan(sc.Seq) }},
		{"Gups", func() workload.Workload { return workload.NewGUPS(sc.Gups) }},
		{"Metis", func() workload.Workload { return workload.NewMetis(sc.Metis) }},
	}
	sysNames := []string{"Hermit", "DiLOS", "MageLib", "MageLnx"}
	jph := runCells(sc, len(apps)*len(sysNames), func(i int) float64 {
		app, sys := apps[i/len(sysNames)], sysNames[i%len(sysNames)]
		w := app.mk()
		res := runStreams(sys, w, w.Streams(sc.Threads, sc.Seed), 1, nil)
		return res.JobsPerHour()
	})
	for ai, app := range apps {
		row := []string{app.name}
		// The Hermit-relative deltas are derived after the fan-out, from
		// the collected cells.
		hermit := jph[ai*len(sysNames)]
		for si, sys := range sysNames {
			v := jph[ai*len(sysNames)+si]
			if sys == "Hermit" {
				row = append(row, fmtF1(v))
			} else {
				rel := 0.0
				if hermit > 0 {
					rel = v/hermit - 1
				}
				row = append(row, fmt.Sprintf("%s (%+.1f%%)", fmtF1(v), rel*100))
			}
		}
		row = append(row, "jobs/h")
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: Hermit (bare metal) wins by 2-8% on most apps; virtualization (EPT, VM exits) and OSv's immature userspace explain the gap")
	return []*Table{t}
}
