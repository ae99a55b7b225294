package main

import (
	"flag"
	"fmt"

	"mage/internal/core"
	"mage/internal/sim"
	"mage/internal/workload"
)

// calibrate prints ideal/hermit/magelib drop curves for GapBS at the
// given per-edge compute cost, for tuning the workload's cost constants
// against Fig 1. Invoked with -calibrate.
func calibrate(edgeNs int) {
	p := workload.GapBSParams{
		Scale: 15, EdgeFactor: 32, Iterations: 2, BytesPerVertex: 16,
		EdgeCompute: sim.Time(edgeNs), VertexCompute: sim.Time(3 * edgeNs), Seed: 42,
	}
	for _, name := range []string{"ideal", "magelib", "dilos", "hermit"} {
		w := workload.NewGapBS(p)
		base, _ := runCalib(name, w, 0)
		fmt.Printf("%-8s wss=%d base=%.1f j/h\n", name, w.NumPages(), base)
		for _, off := range []float64{0.1, 0.3, 0.5, 0.9} {
			w := workload.NewGapBS(p)
			jph, res := runCalib(name, w, off)
			m := res.Metrics
			fmt.Printf("  off=%.0f%% %9.1f j/h drop=%5.1f%% faults=%d dedup=%d evict=%d sync=%d p99=%.1fµs freeWait=%.2fms acctWait=%.2fms allocWait=%.2fms\n",
				off*100, jph, (1-jph/base)*100, m.MajorFaults, m.DedupWaits,
				m.EvictedPages, m.SyncEvicts, float64(m.FaultP99Ns)/1e3,
				float64(m.FreeWaitNs)/1e6, float64(m.AcctLockWaitNs)/1e6,
				float64(m.AllocLockWaitNs)/1e6)
		}
	}
}

func runCalib(name string, w workload.Workload, off float64) (float64, core.RunResult) {
	total := w.NumPages()
	cfg, err := core.Preset(name, 48, total, core.LocalPages(total, 1-off))
	if err != nil {
		panic(err)
	}
	n, err := core.NewNode(cfg, nil)
	if err != nil {
		panic(err)
	}
	n.Tenants()[0].Prepopulate(int(total))
	res := n.Run(w.Streams(48, 1))
	return res.JobsPerHour(), res
}

var calibEdge = flag.Int("calibrate", 0, "run GapBS calibration with the given per-edge ns cost")
