// Latency-critical serving: an open-loop memcached (Facebook USR mix,
// Zipf(0.99) keys) on far memory, sweeping offered load and reporting p99
// latency — the scenario of the paper's Fig 13.
package main

import (
	"fmt"

	"mage"
)

func main() {
	const (
		threads   = 24  // one NUMA socket, as in the paper
		localFrac = 0.5 // half the store offloaded
	)
	params := mage.MemcachedParams{
		Keys: 1 << 17, ValueBytes: 256, Theta: 0.99,
		GetFraction: 0.998, ComputePerOp: 1500,
	}

	fmt.Printf("memcached, %d server threads, %.0f%% local memory, USR mix\n\n",
		threads, localFrac*100)
	fmt.Printf("%-10s %-8s %12s %12s %12s\n",
		"load(Kops)", "system", "p50(µs)", "p99(µs)", "achieved")

	for _, load := range []float64{200e3, 600e3, 1200e3} {
		for _, preset := range []string{"hermit", "magelib"} {
			w := mage.NewMemcached(params)
			cfg, err := mage.Preset(preset, threads, w.NumPages(), mage.LocalPages(w.NumPages(), localFrac))
			if err != nil {
				panic(err)
			}
			node := mage.MustNewSystem(cfg)
			node.Tenants()[0].Prepopulate(int(w.NumPages()))
			res := w.RunOpenLoop(node, threads, load, 30*mage.Millisecond, 11)
			fmt.Printf("%-10.0f %-8s %12.1f %12.1f %12.0f\n",
				load/1e3, cfg.Name,
				float64(res.P50Ns)/1e3, float64(res.P99Ns)/1e3, res.AchievedOps)
		}
	}
	fmt.Println("\nMAGE holds the p99 flat as load grows because the fault path never")
	fmt.Println("runs eviction inline; the latency left over is network queueing.")
}
