// Cluster mode: -cluster N spawns N shards x -replicas R in-process
// memory nodes and drives the sharded memcluster client against them,
// reporting the same throughput/latency spread as single-node mode
// plus the cluster's robustness counters. -chaos additionally kills
// one replica a quarter of the way through the run, restarts it at the
// halfway mark, and refuses to pass unless the replica was re-admitted
// (post-resync) and no operation failed — the command-line twin of the
// kill-one-shard-mid-sweep acceptance test.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// runCluster drives the cluster workload and returns its report.
func runCluster(cfg config, shards, replicas int, chaos bool, jsonOut bool) (report, error) {
	if replicas < 1 {
		return report{}, fmt.Errorf("-replicas must be >= 1")
	}
	if chaos && replicas < 2 {
		return report{}, fmt.Errorf("-chaos needs -replicas >= 2 (failover requires a surviving peer)")
	}
	capMB := cfg.regionMB + 64
	srvs := make([][]*memnode.Server, shards)
	addrs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			srv, err := memnode.NewServer("127.0.0.1:0", capMB<<20)
			if err != nil {
				return report{}, fmt.Errorf("spawn shard %d replica %d: %w", s, r, err)
			}
			defer srv.Close()
			srvs[s] = append(srvs[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
	}
	if !jsonOut {
		fmt.Printf("spawned %d shards x %d replicas (%d in-process memory nodes)\n",
			shards, replicas, shards*replicas)
	}
	cl, err := memcluster.New(addrs, memcluster.Options{
		PageBytes:     cfg.pageBytes,
		ProbeInterval: 50 * time.Millisecond,
		Node: memnode.Options{
			DialTimeout: 500 * time.Millisecond,
			IOTimeout:   2 * time.Second,
			MaxAttempts: 2,
		},
	})
	if err != nil {
		return report{}, err
	}
	defer cl.Close()
	region, err := cl.Register(cfg.regionMB << 20)
	if err != nil {
		return report{}, fmt.Errorf("register: %w", err)
	}
	pages := (cfg.regionMB << 20) / cfg.pageBytes
	// Prewarm batched page-by-page: cluster writes replicate, so this
	// also seeds every replica before the timed window.
	warm := make([]byte, cfg.pageBytes)
	batchOffs := make([]int64, 0, memnode.MaxBatchPages)
	batchPgs := make([][]byte, 0, memnode.MaxBatchPages)
	flushWarm := func() error {
		if len(batchOffs) == 0 {
			return nil
		}
		err := cl.WriteV(region, batchOffs, batchPgs)
		batchOffs = batchOffs[:0]
		batchPgs = batchPgs[:0]
		return err
	}
	maxBatch := memnode.MaxBatchPages
	if m := int(int64(memnode.MaxIO) / cfg.pageBytes); m < maxBatch {
		maxBatch = m
	}
	for p := int64(0); p < pages; p++ {
		batchOffs = append(batchOffs, p*cfg.pageBytes)
		batchPgs = append(batchPgs, warm)
		if len(batchOffs) == maxBatch {
			if err := flushWarm(); err != nil {
				return report{}, fmt.Errorf("prewarm: %w", err)
			}
		}
	}
	if err := flushWarm(); err != nil {
		return report{}, fmt.Errorf("prewarm: %w", err)
	}

	totalOps := uint64(cfg.workers * cfg.ops)
	ld := newLoad(cfg, region, pages)
	var doneOps atomic.Uint64
	ld.progress = &doneOps
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.lane(cl, cfg.seed+int64(w)*1009, cfg.ops)
		}()
	}

	var chaosErr error
	if chaos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chaosErr = runChaos(cl, srvs, capMB, &doneOps, totalOps, jsonOut)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if chaosErr != nil {
		return report{}, chaosErr
	}

	r, err := ld.report(elapsed)
	if err != nil {
		return report{}, err
	}
	st := cl.Stats()
	r.Transport = "tcp"
	r.Depth = 1
	r.Shards = st.Shards
	r.Replicas = st.Replicas / st.Shards
	r.Chaos = chaos
	r.Failovers = st.Failovers
	r.Readmissions = st.Readmissions
	r.ResyncedPages = st.ResyncedPages
	r.DegradedWrites = st.DegradedWrites
	return r, nil
}

// runChaos kills replica 0 of shard 0 at 25% completion, restarts it
// on the same address at 50%, and then requires the prober to re-admit
// it (resync complete) before the workload drains.
func runChaos(cl *memcluster.Cluster, srvs [][]*memnode.Server, capMB int64, doneOps *atomic.Uint64, totalOps uint64, jsonOut bool) error {
	waitDone := func(frac float64) {
		target := uint64(float64(totalOps) * frac)
		for doneOps.Load() < target {
			time.Sleep(time.Millisecond)
		}
	}
	waitDone(0.25)
	addr := srvs[0][0].Addr()
	srvs[0][0].Close()
	if !jsonOut {
		fmt.Printf("chaos: killed replica %s at %d ops\n", addr, doneOps.Load())
	}
	waitDone(0.5)
	deadline := time.Now().Add(30 * time.Second)
	var srv *memnode.Server
	var err error
	for srv == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: could not rebind %s: %v", addr, err)
		}
		srv, err = memnode.NewServer(addr, capMB<<20)
		if srv == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	srvs[0][0] = srv
	if !jsonOut {
		fmt.Printf("chaos: restarted replica %s at %d ops\n", addr, doneOps.Load())
	}
	for cl.Stats().Readmissions == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: replica %s not re-admitted before deadline", addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !jsonOut {
		fmt.Printf("chaos: replica %s re-admitted after resync (%d pages copied)\n",
			addr, cl.Stats().ResyncedPages)
	}
	return nil
}
