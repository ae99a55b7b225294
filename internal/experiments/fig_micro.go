package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/nic"
	"mage/internal/sim"
)

// microCfg configures the sequential-read microbenchmark of §3.2: each
// thread reads a private region at page granularity; every access is a
// major fault (pages start remote; no warm-up population).
func microCfg(name string, threads, pagesPerThread int, localFrac float64, mutate func(*core.Config)) core.Config {
	total := uint64(threads * pagesPerThread)
	return presetCfg(name, threads, total, core.LocalPages(total, localFrac), mutate)
}

// microRun executes the microbenchmark and returns fault throughput in
// M ops/s plus the metrics snapshot.
func microRun(name string, threads, pagesPerThread int, localFrac float64, mutate func(*core.Config)) (float64, core.RunResult) {
	n, _ := mustNode(microCfg(name, threads, pagesPerThread, localFrac, mutate))
	streams := make([]core.AccessStream, threads)
	for t := 0; t < threads; t++ {
		lo := uint64(t * pagesPerThread)
		i := 0
		streams[t] = core.FuncStream(func() (core.Access, bool) {
			if i >= pagesPerThread {
				return core.Access{}, false
			}
			a := core.Access{Page: lo + uint64(i)}
			i++
			return a, true
		})
	}
	res := n.Run(streams)
	mops := float64(res.Metrics.MajorFaults) / res.Makespan.Seconds() / 1e6
	return mops, res
}

// threadSysCell is one (thread count, system) grid point.
type threadSysCell struct {
	threads int
	name    string
}

// sweepCells enumerates the (thread count, system) grid in row order.
func sweepCells(threadSweep []int, systems []string) []threadSysCell {
	cells := make([]threadSysCell, 0, len(threadSweep)*len(systems))
	for _, th := range threadSweep {
		for _, name := range systems {
			cells = append(cells, threadSysCell{th, name})
		}
	}
	return cells
}

// Fig5 reproduces Figure 5: fault-in-only vs fault-in-with-eviction
// throughput as thread count grows, against the ideal 5.86 M ops/s link
// limit.
func Fig5(sc Scale) []*Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Seq-read fault throughput: fault-only vs fault+eviction (M ops/s)",
		Header: []string{"threads", "system", "fault-only", "fault+evict"},
	}
	idealLimit := nic.NewDefault(sim.NewEngine(), nic.StackLibOS).MaxPagesPerSecond() / 1e6
	cells := sweepCells(sc.ThreadSweep, []string{"Hermit", "DiLOS", "MageLib", "MageLnx"})
	type point struct{ faultOnly, withEvict float64 }
	results := runCells(sc, len(cells), func(i int) point {
		c := cells[i]
		faultOnly, _ := microRun(c.name, c.threads, sc.MicroPagesPerThread, 1.0, nil)
		withEvict, _ := microRun(c.name, c.threads, sc.MicroPagesPerThread, 0.5, nil)
		return point{faultOnly, withEvict}
	})
	for i, c := range cells {
		t.AddRow(fmt.Sprintf("%d", c.threads), c.name, fmtF(results[i].faultOnly), fmtF(results[i].withEvict))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ideal link limit: %.2f M ops/s (paper: 5.83)", idealLimit),
		"paper: Hermit and DiLOS saturate around 24-28 threads; eviction costs DiLOS ~half its fault-only throughput")
	return []*Table{t}
}

// breakdownTable renders fault-handler latency breakdowns (Figs 6, 16).
func breakdownTable(id, title string, sc Scale, systems []string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"threads", "system", "rdma µs", "tlb µs", "acct µs", "alloc µs", "others µs", "total µs"},
	}
	cells := sweepCells([]int{24, 48}, systems)
	results := runCells(sc, len(cells), func(i int) core.RunResult {
		c := cells[i]
		_, res := microRun(c.name, c.threads, sc.MicroPagesPerThread, 0.5, nil)
		return res
	})
	for i, c := range cells {
		b := results[i].Metrics.BreakdownNs
		total := b[core.CompRDMA] + b[core.CompTLB] + b[core.CompAcct] +
			b[core.CompAlloc] + b[core.CompOthers]
		t.AddRow(fmt.Sprintf("%d", c.threads), c.name,
			fmtF(b[core.CompRDMA]/1e3), fmtF(b[core.CompTLB]/1e3),
			fmtF(b[core.CompAcct]/1e3), fmtF(b[core.CompAlloc]/1e3),
			fmtF(b[core.CompOthers]/1e3), fmtF(total/1e3))
	}
	return t
}

// Fig6 reproduces Figure 6: the Hermit/DiLOS fault-handler breakdown at
// 24 and 48 threads (with active eviction).
func Fig6(sc Scale) []*Table {
	t := breakdownTable("fig6",
		"Fault-handler latency breakdown, Hermit & DiLOS (24/48 threads, 50% offload)",
		sc, []string{"Hermit", "DiLOS"})
	t.Notes = append(t.Notes, "paper: at low thread count RDMA dominates; at 48 threads synchronous-eviction TLB time and contention take over")
	return []*Table{t}
}

// Fig16 reproduces Figure 16: the same breakdown for DiLOS vs the MAGE
// variants, showing accounting and circulation collapsing to sub-µs.
func Fig16(sc Scale) []*Table {
	t := breakdownTable("fig16",
		"Fault-handler latency breakdown, DiLOS vs MAGE variants (24/48 threads)",
		sc, []string{"DiLOS", "MageLib", "MageLnx"})
	t.Notes = append(t.Notes, "paper: partitioning cuts accounting 2.1→0.2µs; the staging allocator cuts circulation 2.4→0.5µs; TLB leaves the fault path entirely")
	return []*Table{t}
}

// Fig7 reproduces Figure 7: average TLB shootdown latency and per-IPI
// delivery latency vs thread count.
func Fig7(sc Scale) []*Table {
	t := &Table{
		ID:     "fig7",
		Title:  "TLB shootdown and IPI delivery latency vs threads (seq read, 50% offload)",
		Header: []string{"threads", "system", "shootdown µs", "ipi µs", "shootdowns", "ipis"},
	}
	cells := sweepCells(sc.ThreadSweep, []string{"Hermit", "DiLOS"})
	results := runCells(sc, len(cells), func(i int) core.RunResult {
		c := cells[i]
		_, res := microRun(c.name, c.threads, sc.MicroPagesPerThread, 0.5, nil)
		return res
	})
	for i, c := range cells {
		m := results[i].Metrics
		t.AddRow(fmt.Sprintf("%d", c.threads), c.name,
			fmtF(m.ShootdownMeanNs/1e3), fmtF(m.IPIDeliveryMeanNs/1e3),
			fmt.Sprintf("%d", m.Shootdowns), fmt.Sprintf("%d", m.IPIsSent))
	}
	t.Notes = append(t.Notes,
		"paper: IPI latency inflates ~33x from 1 to 48 threads (queueing storms); cross-socket latency kinks the curve near 28 threads")
	return []*Table{t}
}

// Fig14 reproduces Figure 14: p99 fault latency and synchronous-eviction
// counts for the 48-thread sequential read at 30% local memory, plus
// achieved RDMA goodput.
func Fig14(sc Scale) []*Table {
	t := &Table{
		ID:     "fig14",
		Title:  "Seq read, 48 threads, 30% local, prefetch off",
		Header: []string{"system", "p99 µs", "mean µs", "sync evicts", "Rx Gbps", "faults"},
	}
	names := []string{"Hermit", "DiLOS", "MageLib", "MageLnx"}
	results := runCells(sc, len(names), func(i int) core.RunResult {
		_, res := microRun(names[i], sc.Threads, sc.MicroPagesPerThread, 0.3, nil)
		return res
	})
	for i, name := range names {
		m := results[i].Metrics
		t.AddRow(name, fmtUs(m.FaultP99Ns), fmtF(m.FaultMeanNs/1e3),
			fmt.Sprintf("%d", m.SyncEvicts), fmtF1(m.RxGbps),
			fmt.Sprintf("%d", m.MajorFaults))
	}
	t.Notes = append(t.Notes,
		"paper: Mage^LIB 181 Gbps (94% of link), Mage^LNX 139 Gbps (kernel stack);"+
			" p99 drops from 255µs (Hermit) / 82µs (DiLOS) to 12µs / 31µs; MAGE has zero synchronous evictions")
	return []*Table{t}
}

// Fig15 reproduces Figure 15: the throughput-latency curve under paced
// load, compared with raw RDMA reads (with 4 background writers).
func Fig15(sc Scale) []*Table {
	t := &Table{
		ID:     "fig15",
		Title:  "Throughput vs p99 latency under paced fault load",
		Header: []string{"offered Mops", "system", "achieved Mops", "p99 µs"},
	}
	loads := []float64{1e6, 2e6, 3e6, 4e6, 5e6}
	type cell struct {
		load float64
		name string // "RawRDMA" selects the bare-NIC comparison run
	}
	var cells []cell
	for _, load := range loads {
		for _, name := range []string{"Hermit", "DiLOS", "MageLib", "MageLnx", "RawRDMA"} {
			cells = append(cells, cell{load, name})
		}
	}
	type point struct {
		ach float64
		p99 int64
	}
	results := runCells(sc, len(cells), func(i int) point {
		c := cells[i]
		if c.name == "RawRDMA" {
			ach, p99 := rawRDMARun(sc, c.load)
			return point{ach, p99}
		}
		ach, p99 := pacedFaultRun(c.name, sc, c.load)
		return point{ach, p99}
	})
	for i, c := range cells {
		t.AddRow(fmtF(c.load/1e6), c.name, fmtF(results[i].ach/1e6), fmtUs(results[i].p99))
	}
	t.Notes = append(t.Notes,
		"paper: Mage^LIB holds a flat tail across loads (allocation never stalls; FP back-pressures the NIC); raw RDMA spikes at saturation")
	return []*Table{t}
}

// pacedFaultRun drives the system with an aggregate offered fault load
// (ops/s) spread across the thread count, open-loop per thread.
func pacedFaultRun(name string, sc Scale, load float64) (achievedOps float64, p99 int64) {
	threads := sc.Threads
	pages := sc.MicroPagesPerThread
	n, _ := mustNode(microCfg(name, threads, pages, 0.5, nil))
	perThread := load / float64(threads)
	interNs := sim.Time(1e9 / perThread)
	streams := make([]core.AccessStream, threads)
	for tid := 0; tid < threads; tid++ {
		lo := uint64(tid * pages)
		i := 0
		var next sim.Time
		streams[tid] = core.FuncStream(func() (core.Access, bool) {
			if i >= pages {
				return core.Access{}, false
			}
			a := core.Access{
				Page: lo + uint64(i),
				Wait: func(p *sim.Proc) {
					if next > p.Now() {
						p.Sleep(next - p.Now())
					}
					next = p.Now() + interNs
				},
			}
			i++
			return a, true
		})
	}
	res := n.Run(streams)
	return float64(res.Metrics.MajorFaults) / res.Makespan.Seconds(), res.Metrics.FaultP99Ns
}

// rawRDMARun measures bare NIC reads at the offered load with 4
// background writer threads, as the paper's RDMA-only comparison does.
func rawRDMARun(sc Scale, load float64) (achievedOps float64, p99 int64) {
	eng := sim.NewEngine()
	n := nic.NewDefault(eng, nic.StackLibOS)
	threads := sc.Threads
	reads := sc.MicroPagesPerThread
	perThread := load / float64(threads)
	interNs := sim.Time(1e9 / perThread)
	stop := false
	for w := 0; w < 4; w++ {
		eng.Spawn(fmt.Sprintf("bg-writer-%d", w), func(p *sim.Proc) {
			for !stop {
				n.PostWrite(p, 64*nic.PageSize).Wait(p)
			}
		})
	}
	remaining := threads
	var makespan sim.Time
	for tid := 0; tid < threads; tid++ {
		eng.Spawn(fmt.Sprintf("reader-%d", tid), func(p *sim.Proc) {
			var next sim.Time
			for i := 0; i < reads; i++ {
				if next > p.Now() {
					p.Sleep(next - p.Now())
				}
				next = p.Now() + interNs
				n.Read(p, nic.PageSize)
			}
			if p.Now() > makespan {
				makespan = p.Now()
			}
			remaining--
			if remaining == 0 {
				stop = true
			}
		})
	}
	eng.Run()
	return float64(n.Reads.Value()) / makespan.Seconds(), n.ReadLatency.P99()
}
