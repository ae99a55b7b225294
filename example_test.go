package mage_test

import (
	"fmt"

	"mage"
)

// ExampleMustNewSystem runs a small deterministic workload on a
// single-tenant Mage^LIB node and prints stable facts about the execution.
func ExampleMustNewSystem() {
	cfg := mage.MageLib(4, 2048, 1024) // 4 threads, 2048-page WSS, half local
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	node := mage.MustNewSystem(cfg)
	node.Tenants()[0].Prepopulate(2048)

	// Each thread scans a quarter of the working set.
	streams := make([]mage.AccessStream, 4)
	for i := range streams {
		lo := uint64(i) * 512
		n := 0
		streams[i] = mage.FuncStream(func() (mage.Access, bool) {
			if n >= 512 {
				return mage.Access{}, false
			}
			a := mage.Access{Page: lo + uint64(n), Compute: 500}
			n++
			return a, true
		})
	}
	res := node.Run(streams)

	fmt.Println("accesses:", res.TotalAccesses())
	fmt.Println("sync evictions:", res.Metrics.SyncEvicts)
	fmt.Println("deterministic:", res.Makespan > 0)
	// Output:
	// accesses: 2048
	// sync evictions: 0
	// deterministic: true
}

// ExamplePreset shows the five systems the evaluation compares.
func ExamplePreset() {
	for _, name := range []string{"ideal", "hermit", "dilos", "magelib", "magelnx"} {
		cfg, err := mage.Preset(name, 48, 1<<16, 1<<15)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: sync-eviction=%v pipelined=%v\n",
			cfg.Name, cfg.SyncEviction, cfg.Pipelined)
	}
	// Output:
	// Ideal: sync-eviction=false pipelined=false
	// Hermit: sync-eviction=true pipelined=false
	// DiLOS: sync-eviction=true pipelined=false
	// MageLib: sync-eviction=false pipelined=true
	// MageLnx: sync-eviction=false pipelined=true
}
