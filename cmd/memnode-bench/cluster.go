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
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/stats"
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
	lat := stats.NewConcurrentHistogram()
	var okOps, errs, doneOps atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*1009))
			h := stats.NewHistogram()
			buf := make([]byte, cfg.pageBytes)
			rng.Read(buf)
			bufs := make([][]byte, cfg.batch)
			for i := range bufs {
				bufs[i] = buf
			}
			offs := make([]int64, cfg.batch)
			// Every batched read of the worker lands in the same pages.
			got := memnode.SplitPages(make([]byte, int64(cfg.batch)*cfg.pageBytes), cfg.pageBytes)
			var ok uint64
			for i := 0; i < cfg.ops; i++ {
				isWrite := rng.Float64() < cfg.writeFrac
				for j := range offs {
					offs[j] = rng.Int63n(pages) * cfg.pageBytes
				}
				sampled := i&3 == 0
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				var err error
				switch {
				case cfg.batch > 1 && isWrite:
					err = cl.WriteV(region, offs, bufs)
				case cfg.batch > 1:
					err = cl.ReadVInto(region, offs, got)
				case isWrite:
					err = cl.Write(region, offs[0], buf)
				default:
					var body []byte
					body, err = cl.Read(region, offs[0], cfg.pageBytes)
					if err == nil {
						memnode.PutBuf(body)
					}
				}
				doneOps.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				ok++
				if sampled {
					h.Record(time.Since(t0).Nanoseconds())
				}
			}
			okOps.Add(ok)
			lat.Merge(h)
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

	h := lat.Snapshot()
	done := okOps.Load()
	if done == 0 || h.Count() == 0 {
		return report{}, fmt.Errorf("no successful operations")
	}
	st := cl.Stats()
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	r := report{
		Transport:       "tcp",
		Workers:         cfg.workers,
		Depth:           1,
		Batch:           cfg.batch,
		PageBytes:       cfg.pageBytes,
		Ops:             done,
		Pages:           done * uint64(cfg.batch),
		Errors:          errs.Load(),
		ElapsedSec:      elapsed.Seconds(),
		OpsPerSec:       float64(done) / elapsed.Seconds(),
		PagesPerSec:     float64(done*uint64(cfg.batch)) / elapsed.Seconds(),
		P50Us:           us(h.P50()),
		P90Us:           us(h.P90()),
		P99Us:           us(h.P99()),
		MaxUs:           us(h.Max()),
		Shards:          st.Shards,
		Replicas:        st.Replicas / st.Shards,
		Chaos:           chaos,
		Failovers:       st.Failovers,
		Readmissions:    st.Readmissions,
		RebalancedPages: st.RebalancedPages,
		DegradedWrites:  st.DegradedWrites,
	}
	r.MiBPerSec = r.PagesPerSec * float64(cfg.pageBytes) / (1 << 20)
	if chaos && r.Errors > 0 {
		return r, fmt.Errorf("chaos run had %d failed ops (want zero: failover must absorb the kill)", r.Errors)
	}
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
			addr, cl.Stats().RebalancedPages)
	}
	return nil
}
