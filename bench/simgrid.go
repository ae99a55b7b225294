package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mage"
	"mage/internal/stats"
)

// sim-grid: the paper-reproduction half of the repo. A fixed grid of
// DES cells. What is timed is the host, not the simulation: simulated
// counts repeat exactly for a given seed, so any drift in them is a
// finding.

const simThreads = 24

var simPresets = []string{"ideal", "hermit", "dilos", "magelib", "magelnx"}

type simCell struct {
	preset string
	kind   string // "gups" or "seqscan"
}

func simCells() []simCell {
	var cells []simCell
	for _, p := range simPresets {
		cells = append(cells, simCell{p, "gups"}, simCell{p, "seqscan"})
	}
	return cells
}

type cellRun struct {
	hostNs     int64
	accesses   uint64
	faults     uint64
	evicted    uint64
	syncEvicts uint64
	digest     [sha256.Size]byte // of the cell's whole Metrics
}

func runCell(c simCell, seed int64) cellRun {
	var w mage.Workload
	switch c.kind {
	case "gups":
		p := mage.DefaultGUPSParams()
		p.Pages, p.UpdatesPerThread = 16<<10, 20000
		w = mage.NewGUPS(p)
	case "seqscan":
		p := mage.DefaultSeqScanParams()
		p.Pages, p.Iterations = 20<<10, 8
		w = mage.NewSeqScan(p)
	}
	pages := w.NumPages()
	cfg, err := mage.Preset(c.preset, simThreads, pages, int(pages/2))
	if err != nil {
		panic(err) // the preset names are constants of this file
	}
	streams := w.Streams(simThreads, seed)
	t0 := time.Now()
	r := mage.MustNewSystem(cfg).Run(streams)
	host := time.Since(t0)
	// Metrics is plain data; encoding/json orders its one map's keys.
	enc, err := json.Marshal(r.Metrics)
	if err != nil {
		panic(err)
	}
	return cellRun{
		hostNs:     host.Nanoseconds(),
		accesses:   r.TotalAccesses(),
		faults:     r.Metrics.MajorFaults,
		evicted:    r.Metrics.EvictedPages,
		syncEvicts: r.Metrics.SyncEvicts,
		digest:     sha256.Sum256(enc),
	}
}

// cellExec is one execution of a cell with the box speed the reference
// (ref.go) measured either side of it.
type cellExec struct {
	run        cellRun
	speed      float64
	allocBytes uint64 // MemStats.TotalAlloc over the execution
}

func runSimGrid(ctx context.Context, env *benchEnv, o runOpts) (*result, error) {
	res := newResult("sim-grid", o.seed, o.traced)
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	defer st.close()
	ref, err := st.startRef(ctx)
	if err != nil {
		return nil, err
	}
	cells := simCells()

	// The cells run one after another on the one CPU the harness is
	// confined to, with a slice of the reference between them. A cell is
	// a fixed, deterministic amount of work, so its host time is
	// restated like a timed slice's latency: multiplied by the box speed.
	refRate, err := ref.measure()
	if err != nil {
		return nil, err
	}
	execs := make([][]cellExec, len(cells))
	exec := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c := runCell(cells[i], o.seed)
		runtime.ReadMemStats(&ms1)
		after, err := ref.measure()
		if err != nil {
			return err
		}
		execs[i] = append(execs[i], cellExec{c, (refRate + after) / 2 / refOpsPerS, ms1.TotalAlloc - ms0.TotalAlloc})
		refRate = after
		return nil
	}

	// The warm-up repetition is the set-up: it faults the heap in and
	// fixes the digest every later execution of a cell must reproduce.
	var setupS, setupRaw float64
	for i := range cells {
		if err := exec(i); err != nil {
			return nil, err
		}
		e := execs[i][0]
		setupS += float64(e.run.hostNs) / 1e9 * restate("sim-grid", e.speed)
		setupRaw += float64(e.run.hostNs) / 1e9
	}

	// Timed: every cell gets the same share of -seconds and runs until
	// it has used it up, at least once. The cheap cells, which a single
	// reference slice either side measures worst, thus run most often.
	from, steal0 := time.Now(), readSteal()
	timed := 0
	share := o.seconds / time.Duration(len(cells))
	for i := range cells {
		for used := time.Duration(0); used < share; timed++ {
			if err := exec(i); err != nil {
				return nil, err
			}
			used += time.Duration(execs[i][len(execs[i])-1].run.hostNs)
		}
	}
	res.set("harness.steal_frac", float64(readSteal()-steal0)/clkTck/(time.Since(from).Seconds()*float64(runtime.NumCPU())))

	// Each cell counts at the median of its executions, the warm-up's
	// included: it did the same work.
	var (
		cellLat                   = stats.NewHistogram()
		hostNs, rawNs, allocBytes float64
		speeds                    []float64
		accesses, faults, evicted uint64
		syncEvicted               uint64
		perPreset                 = make(map[string]float64)
	)
	for i, es := range execs {
		var at, raw, alloc []float64
		for n, e := range es {
			at = append(at, float64(e.run.hostNs)*restate("sim-grid", e.speed))
			raw = append(raw, float64(e.run.hostNs))
			alloc = append(alloc, float64(e.allocBytes))
			speeds = append(speeds, e.speed)
			if n == 0 {
				continue
			}
			res.Attempted++
			if e.run.digest != es[0].run.digest {
				res.Failed++
				res.Notes["first_drift"] = fmt.Sprintf("cell %s/%s", cells[i].preset, cells[i].kind)
			}
		}
		t := median(at)
		cellLat.Record(int64(t))
		hostNs += t
		rawNs += median(raw)
		allocBytes += median(alloc)
		perPreset[cells[i].preset] += t / 1e9
		c := es[0].run
		accesses += c.accesses
		faults += c.faults
		evicted += c.evicted
		syncEvicted += c.syncEvicts
	}

	res.set("setup_s", setupS)
	res.Notes["setup_s_as_measured"] = fmt.Sprintf("%.3f", setupRaw)
	res.set("ops_per_s", float64(accesses)/(hostNs/1e9))
	// An op of this workload is a cell: its latency is the cell's host
	// time. With ten cells the p90 is the second slowest cell and the
	// p99 the slowest.
	res.set("p50_us", float64(cellLat.P50())/1e3)
	res.set("p90_us", float64(cellLat.P90())/1e3)
	res.set("p99_us", float64(cellLat.P99())/1e3)
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)

	res.set("harness.raw_ops_per_s", float64(accesses)/(rawNs/1e9))
	res.set("harness.box_speed", median(speeds))
	res.set("sim.host_ns_per_access", perOp(hostNs, accesses))
	res.set("sim.host_ns_per_fault", perOp(hostNs, faults))
	for _, p := range simPresets {
		res.set("sim.cell_s."+p, perPreset[p])
	}
	res.set("sim.alloc_mb_per_rep", allocBytes/(1<<20))
	res.set("core.faults_per_access", ratioOf(faults, accesses))
	res.set("core.evicted_per_fault", ratioOf(evicted, faults))
	res.set("core.sync_evictions", float64(syncEvicted))
	res.set("harness.build_s", env.buildS)

	all := sha256.New()
	for _, es := range execs {
		all.Write(es[0].run.digest[:])
	}
	res.Notes["sim_counts"] = fmt.Sprintf("%d accesses, %d faults per repetition; %d timed cell executions", accesses, faults, timed)
	res.Notes["sim_digest"] = fmt.Sprintf("%x", all.Sum(nil)[:8])
	res.finish()
	return res, nil
}
