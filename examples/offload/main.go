// Offload planning: how much memory can each system give up before
// violating a throughput SLO? This is the operator question Fig 1 answers
// — pick a tolerable drop, read off the offloadable fraction. It also
// demonstrates the real-network memory node: the far-memory pool the
// simulation models is served here by an actual TCP daemon, and the
// example verifies page round-trips through it.
package main

import (
	"fmt"
	"math/rand"

	"mage"
)

func main() {
	const (
		threads = 24
		sloDrop = 0.65 // tolerated throughput drop (generous: scaled-down runs pay steeper drops than the testbed)
	)
	params := mage.XSBenchParams{
		Gridpoints: 1 << 14, Nuclides: 32,
		LookupsPerThread: 2500, NuclidesPerLookup: 4,
	}

	fmt.Printf("XSBench, %d threads: max offloadable memory within a %.0f%% SLO\n\n",
		threads, sloDrop*100)

	for _, preset := range []string{"hermit", "dilos", "magelib"} {
		baseline := runAt(preset, threads, params, 0)
		best := 0.0
		for _, off := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
			jph := runAt(preset, threads, params, off)
			if 1-jph/baseline <= sloDrop {
				best = off
			}
		}
		fmt.Printf("  %-8s can offload %.0f%% of the working set\n", preset, best*100)
	}

	// The far-memory pool as a real service: start the memory node, push
	// a page out, and fetch it back over TCP.
	fmt.Println("\nmemory node demo (real TCP):")
	node, err := mage.NewMemoryNode("127.0.0.1:0", 64<<20)
	if err != nil {
		panic(err)
	}
	defer node.Close()
	client, err := mage.DialMemoryNode(node.Addr())
	if err != nil {
		panic(err)
	}
	defer client.Close()
	region, err := client.Register(16 << 20)
	if err != nil {
		panic(err)
	}
	page := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(page)
	if err := client.Write(region, 8<<20, page); err != nil {
		panic(err)
	}
	back, err := client.Read(region, 8<<20, 4096)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range page {
		if page[i] != back[i] {
			same = false
			break
		}
	}
	st, _ := client.Stat()
	fmt.Printf("  evicted one page to %s and faulted it back intact: %v\n", node.Addr(), same)
	fmt.Printf("  node stats: %d region(s), %d B read, %d B written\n",
		st.Regions, st.BytesRead, st.BytesWrite)
}

func runAt(preset string, threads int, params mage.XSBenchParams, off float64) float64 {
	w := mage.NewXSBench(params)
	total := w.NumPages()
	cfg, err := mage.Preset(preset, threads, total, mage.LocalPages(total, 1-off))
	if err != nil {
		panic(err)
	}
	node := mage.MustNewSystem(cfg)
	node.Tenants()[0].Prepopulate(int(total))
	res := node.Run(w.Streams(threads, 1))
	return res.JobsPerHour()
}
