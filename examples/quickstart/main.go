// Quickstart: build a MAGE far-memory system, run PageRank with half the
// working set offloaded, and compare against Hermit.
package main

import (
	"fmt"

	"mage"
)

func main() {
	const (
		threads = 24
		offload = 0.5
	)
	params := mage.GapBSParams{
		Scale: 14, EdgeFactor: 8, Iterations: 2, BytesPerVertex: 64, Seed: 7,
	}

	fmt.Printf("PageRank over a Kronecker graph, %d threads, %.0f%% of memory remote\n\n",
		threads, offload*100)
	fmt.Printf("%-8s %12s %12s %12s %14s\n",
		"system", "runtime(ms)", "faults", "evictions", "p99 fault(µs)")

	for _, preset := range []string{"ideal", "hermit", "dilos", "magelib", "magelnx"} {
		w := mage.NewGapBS(params)
		cfg, err := mage.Preset(preset, threads, w.NumPages(), mage.LocalPages(w.NumPages(), 1-offload))
		if err != nil {
			panic(err)
		}
		node := mage.MustNewSystem(cfg)
		node.Tenants()[0].Prepopulate(int(w.NumPages())) // warm start: hot data loaded
		res := node.Run(w.Streams(threads, 1))
		fmt.Printf("%-8s %12.2f %12d %12d %14.1f\n",
			cfg.Name,
			res.Makespan.Seconds()*1e3,
			res.Metrics.MajorFaults,
			res.Metrics.EvictedPages,
			float64(res.Metrics.FaultP99Ns)/1e3)
	}

	fmt.Println("\nMAGE's always-asynchronous eviction keeps the fault path free of")
	fmt.Println("synchronous stalls; Hermit and DiLOS fall back to inline eviction")
	fmt.Println("under pressure, which is what inflates their tails.")
}
