package experiments

import (
	"fmt"

	"mage/internal/core"
	"mage/internal/nic"
	"mage/internal/workload"
)

// The ext* experiments go beyond the paper's figures: they probe claims
// the paper makes in prose (the 4-evictor sweet spot, backend
// generality) and the design alternative it discusses but rejects
// (S3-FIFO page accounting).

// ExtEvictors sweeps the dedicated-evictor-thread count on the
// sequential-read microbenchmark. The paper asserts "four evictor
// threads provide a sweet spot ... additional eviction threads beyond
// four do not improve throughput" (§4.1, §6.1).
func ExtEvictors(sc Scale) []*Table {
	t := &Table{
		ID:     "extevict",
		Title:  "Evictor-thread sweep, Mage^LIB seq read (48 threads, 50% offload)",
		Header: []string{"evictors", "fault Mops/s", "Rx Gbps", "free-wait ms"},
	}
	evictors := []int{1, 2, 4, 8, 16}
	type point struct {
		mops float64
		res  core.RunResult
	}
	results := runCells(sc, len(evictors), func(i int) point {
		ev := evictors[i]
		mops, res := microRun("MageLib", sc.Threads, sc.MicroPagesPerThread, 0.5,
			func(c *core.Config) { c.EvictorThreads = ev })
		return point{mops, res}
	})
	for i, ev := range evictors {
		p := results[i]
		t.AddRow(fmt.Sprintf("%d", ev), fmtF(p.mops), fmtF1(p.res.Metrics.RxGbps),
			fmtF(float64(p.res.Metrics.FreeWaitNs)/1e6))
	}
	t.Notes = append(t.Notes,
		"paper: 4 evictors saturate the 200 Gbps NIC; more only add synchronization overhead",
		"simulation caveat: at scaled-down working sets eviction is scan-CPU-bound rather than NIC-bound, so extra evictors keep helping longer than on the testbed")
	return []*Table{t}
}

// ExtAccounting compares the four page-accounting designs — including the
// S3-FIFO adaptation the paper rejects for its tracking granularity — on
// GapBS, separating replacement accuracy (faults) from contention (lock
// wait).
func ExtAccounting(sc Scale) []*Table {
	t := &Table{
		ID:     "extacct",
		Title:  "Page-accounting designs on GapBS (48 threads, 50% offload)",
		Header: []string{"accounting", "jobs/h", "faults", "acct-wait ms", "p99 µs"},
	}
	kinds := []struct {
		name string
		kind core.AccountingKind
	}{
		{"global-lru", core.AcctGlobalLRU},
		{"two-list", core.AcctTwoList},
		{"partitioned", core.AcctPartitioned},
		{"per-cpu-fifo", core.AcctPerCPUFIFO},
		{"s3fifo", core.AcctS3FIFO},
	}
	results := runCells(sc, len(kinds), func(i int) core.RunResult {
		k := kinds[i]
		w := workload.NewGapBS(sc.GapBS)
		return runStreams("MageLib", w, w.Streams(sc.Threads, sc.Seed), 0.5,
			func(c *core.Config) { c.Accounting = k.kind })
	})
	for i, k := range kinds {
		res := results[i]
		t.AddRow(k.name, fmtF1(res.JobsPerHour()),
			fmt.Sprintf("%d", res.Metrics.MajorFaults),
			fmtF(float64(res.Metrics.AcctLockWaitNs)/1e6),
			fmtUs(res.Metrics.FaultP99Ns))
	}
	t.Notes = append(t.Notes,
		"paper §4.2.2: partitioning trades accuracy for contention; S3-FIFO needs per-access frequency the page table cannot provide (here approximated with the accessed bit)")
	return []*Table{t}
}

// ExtBackends runs GapBS on the three swap backends the conclusion names
// (RDMA, NVMe SSD, zswap), for Hermit and Mage^LIB, to verify the design
// principles transfer.
func ExtBackends(sc Scale) []*Table {
	t := &Table{
		ID:     "extbackend",
		Title:  "Swap backends: GapBS at 50% offload (48 threads)",
		Header: []string{"backend", "system", "jobs/h", "fault p99 µs", "sync evicts"},
	}
	type cell struct {
		be  nic.Backend
		sys string
	}
	var cells []cell
	for _, be := range []nic.Backend{nic.BackendRDMA, nic.BackendNVMe, nic.BackendZswap} {
		for _, sys := range []string{"Hermit", "MageLib"} {
			cells = append(cells, cell{be, sys})
		}
	}
	results := runCells(sc, len(cells), func(i int) core.RunResult {
		c := cells[i]
		w := workload.NewGapBS(sc.GapBS)
		return runStreams(c.sys, w, w.Streams(sc.Threads, sc.Seed), 0.5,
			func(cf *core.Config) { cf.Backend = c.be })
	})
	for i, c := range cells {
		res := results[i]
		t.AddRow(c.be.String(), c.sys, fmtF1(res.JobsPerHour()),
			fmtUs(res.Metrics.FaultP99Ns),
			fmt.Sprintf("%d", res.Metrics.SyncEvicts))
	}
	t.Notes = append(t.Notes,
		"paper conclusion: the OS-level optimizations apply to any fast swap backend; MAGE should lead on all three")
	return []*Table{t}
}
