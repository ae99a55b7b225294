// Phase change: GUPS shifts its working set mid-run (80% region → 20%
// region). Sampled throughput shows existing systems stalling through the
// transition while MAGE recovers quickly — the paper's Fig 11 scenario.
package main

import (
	"fmt"
	"strings"

	"mage"
)

func main() {
	const threads = 24
	params := mage.GUPSParams{
		Pages: 24 << 10, UpdatesPerThread: 6000, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250,
	}

	fmt.Println("GUPS with a working-set shift at the midpoint, 85% local memory")
	for _, preset := range []string{"hermit", "dilos", "magelib"} {
		w := mage.NewGUPS(params)
		cfg, err := mage.Preset(preset, threads, w.NumPages(), mage.LocalPages(w.NumPages(), 0.85))
		if err != nil {
			panic(err)
		}
		node := mage.MustNewSystem(cfg)
		node.Tenants()[0].Prepopulate(int(w.NumPages()))
		res := node.RunTenants([][]mage.AccessStream{w.Streams(threads, 3)}, mage.RunOptions{
			SampleEvery: 250 * mage.Microsecond,
		})[0]

		fmt.Printf("\n%s (makespan %.1f ms) — throughput over time:\n",
			cfg.Name, res.Makespan.Seconds()*1e3)
		printSparkline(res)
	}
	fmt.Println("\nEach bar is one sample window; the trough is the phase change,")
	fmt.Println("where the old working set must drain while the new one faults in.")
}

// printSparkline renders the sampled series as an ASCII bar chart.
func printSparkline(res mage.RunResult) {
	s := res.Series
	if s == nil || s.Len() == 0 {
		fmt.Println("  (no samples)")
		return
	}
	max := s.Max()
	if max <= 0 {
		return
	}
	const height = 8
	for level := height; level >= 1; level-- {
		var b strings.Builder
		threshold := max * float64(level) / height
		for i := 0; i < s.Len(); i++ {
			if s.V[i] >= threshold {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Printf("  %7.2fM |%s\n", threshold/1e6, b.String())
	}
}
