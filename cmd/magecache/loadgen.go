package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mage/internal/stats"
	"mage/internal/upager"
	"mage/internal/workload"
)

// The load generator drives the cache closed-loop through the standard
// three-phase traffic model (steady Zipf, hot-key storm, flash crowd)
// from internal/workload — the same schedule the DES replays — with
// cache-aside semantics: a GET miss computes the value and fills the
// cache. Every GET hit is integrity-checked against the deterministic
// value model, so a paging bug anywhere under the cache surfaces as a
// failed op, not a silent wrong answer.

const valStampMagic = 0x6d616765636163 // "magecac"

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func keyName(k int64) string { return fmt.Sprintf("k%012x", k) }

// valLen is deterministic per key: 64..1023 bytes, so every value fits
// one slab cell of class <= 1024.
func valLen(k int64) int { return 64 + int(fnv64(uint64(k))%960) }

// valFor computes key k's canonical value: an 8-byte stamp derived from
// the key, then a repeating fill byte. GETs verify both.
func valFor(k int64) []byte {
	v := make([]byte, valLen(k))
	binary.LittleEndian.PutUint64(v, uint64(k)^valStampMagic)
	fill := byte(fnv64(uint64(k) ^ 0xfeed))
	for i := 8; i < len(v); i++ {
		v[i] = fill
	}
	return v
}

func checkVal(k int64, v []byte) error {
	if len(v) != valLen(k) {
		return fmt.Errorf("key %d: length %d, want %d", k, len(v), valLen(k))
	}
	if got := binary.LittleEndian.Uint64(v); got != uint64(k)^valStampMagic {
		return fmt.Errorf("key %d: stamp %#x, want %#x", k, got, uint64(k)^valStampMagic)
	}
	fill := byte(fnv64(uint64(k) ^ 0xfeed))
	for i := 8; i < len(v); i++ {
		if v[i] != fill {
			return fmt.Errorf("key %d: fill byte %d corrupt", k, i)
		}
	}
	return nil
}

type loadConfig struct {
	keys     int64
	workers  int
	totalOps int
	theta    float64
	setFrac  float64
	sloP99Us float64
	seed     int64
}

type loadReport struct {
	Ops        uint64
	Fails      uint64
	Misses     uint64
	Elapsed    time.Duration
	OpsPerSec  float64
	P99Us      float64
	SLOMet     bool
	Violations uint64
	BudgetLeft float64
	FirstErr   error
	Balance    []balanceRow
}

// balanceEvery is the interval of the pager's fault/eviction balance
// that bench mode prints: the paper's balance plot, for the real stack.
const balanceEvery = 250 * time.Millisecond

// balanceRow is what the pager did in one interval ending at: faults
// against evictions, the refaults among the faults (evicted too early),
// the faults that found the pool dry, and the pool's depth at the end.
type balanceRow struct {
	at                                      time.Duration
	faults, evictions, refaults, frameWaits uint64
	free                                    int
}

// watchBalance samples the pager every balanceEvery until stop is
// closed, and once more then.
func watchBalance(p *upager.Pager, start time.Time, stop <-chan struct{}) []balanceRow {
	var rows []balanceRow
	tick := time.NewTicker(balanceEvery)
	defer tick.Stop()
	prev := p.Stats()
	for running := true; running; {
		select {
		case <-tick.C:
		case <-stop:
			running = false
		}
		s := p.Stats()
		rows = append(rows, balanceRow{
			at:     time.Since(start),
			faults: s.Faults - prev.Faults, evictions: s.Evictions - prev.Evictions,
			refaults: s.Refaults - prev.Refaults, frameWaits: s.FrameWaits - prev.FrameWaits,
			free: s.FreeFrames,
		})
		prev = s
	}
	return rows
}

// runLoad drives cfg.totalOps ops across cfg.workers closed-loop
// workers, each walking its own copy of the standard phase schedule.
func runLoad(c *Cache, cfg loadConfig) loadReport {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	per := cfg.totalOps / cfg.workers
	if per < 1 {
		per = 1
	}
	target := int64(cfg.sloP99Us * 1e3)
	if target <= 0 {
		target = int64(10 * time.Millisecond)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		slo      = stats.NewSLOTracker(target, 0.01)
		ops      uint64
		fails    uint64
		misses   uint64
		firstErr error
	)
	start := time.Now()
	stop, balance := make(chan struct{}), make(chan []balanceRow, 1)
	go func() { balance <- watchBalance(c.Pager(), start, stop) }()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			gen := workload.NewPhasedKeys(workload.StandardPhases(cfg.keys, cfg.theta, int64(per/3+1))...)
			wslo := stats.NewSLOTracker(target, 0.01)
			var wops, wfails, wmisses uint64
			var werr error
			for i := 0; i < per; i++ {
				k := gen.Next(rng)
				key := keyName(k)
				t0 := time.Now()
				val, ok, err := c.Get(key)
				if err == nil && !ok {
					// Cache-aside fill: compute and store.
					wmisses++
					err = c.Set(key, valFor(k))
				} else if err == nil {
					err = checkVal(k, val)
				}
				if err == nil && cfg.setFrac > 0 && rng.Float64() < cfg.setFrac {
					err = c.Set(key, valFor(k))
				}
				wslo.Record(time.Since(t0).Nanoseconds())
				wops++
				if err != nil {
					wfails++
					if werr == nil {
						werr = err
					}
				}
			}
			mu.Lock()
			slo.Merge(wslo)
			ops += wops
			fails += wfails
			misses += wmisses
			if firstErr == nil {
				firstErr = werr
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	return loadReport{
		Ops:        ops,
		Fails:      fails,
		Misses:     misses,
		Elapsed:    elapsed,
		OpsPerSec:  float64(ops) / elapsed.Seconds(),
		P99Us:      float64(slo.P99()) / 1e3,
		SLOMet:     slo.Met(),
		Violations: slo.Violations(),
		BudgetLeft: slo.ErrorBudgetRemaining(),
		FirstErr:   firstErr,
		Balance:    <-balance,
	}
}

func printLoadReport(r loadReport, c *Cache, sloP99Us float64) {
	fmt.Printf("magecache-load: %d ops in %.2fs = %.0f ops/s, p99 %.0fus, %d misses, %d failed\n",
		r.Ops, r.Elapsed.Seconds(), r.OpsPerSec, r.P99Us, r.Misses, r.Fails)
	if sloP99Us > 0 {
		verdict := "MET"
		if !r.SLOMet {
			verdict = "MISSED"
		}
		fmt.Printf("magecache-slo: p99<=%.0fus %s — %d/%d ops over target, %.0f%% error budget left\n",
			sloP99Us, verdict, r.Violations, r.Ops, r.BudgetLeft*100)
	}
	cs := c.Stats()
	ps := c.Pager().Stats()
	hitRate := 0.0
	if cs.Gets > 0 {
		hitRate = float64(cs.Gets-cs.Misses) / float64(cs.Gets) * 100
	}
	fmt.Printf("magecache-cache: %d gets (%.1f%% hit), %d sets, %d steals (%d stealer yields)\n",
		cs.Gets, hitRate, cs.Sets, cs.Steals, cs.StealYields)
	fmt.Printf("magecache-heap: %d pages carved hold %.1f MiB of values (%.3f value bytes per carved byte), %.1f MiB of index\n",
		cs.HeapPages, float64(cs.ValueBytes)/(1<<20), cs.density(), float64(cs.IndexBytes)/(1<<20))
	batching := 0.0
	if ps.WritebackBatches > 0 {
		batching = float64(ps.WritebackPages) / float64(ps.WritebackBatches)
	}
	fmt.Printf("magecache-pager: %d faults (%d batched ahead, %d on demand, %d waited for a frame), %d hits, %d coalesced, %d evictions (%d clean), writeback %.1f pages/batch\n",
		ps.Faults, ps.FaultsAhead, ps.Faults-ps.FaultsAhead, ps.FrameWaits, ps.Hits, ps.Coalesced, ps.Evictions, ps.CleanDrops, batching)
	fmt.Printf("magecache-balance: %d refaults of %d faults, %d zero-filled (never written back: no read); per interval:\n", ps.Refaults, ps.Faults, ps.ZeroFills)
	fmt.Printf("magecache-balance: %8s %8s %9s %8s %11s %5s\n", "t", "faults", "evictions", "refaults", "frame-waits", "free")
	for _, b := range r.Balance {
		fmt.Printf("magecache-balance: %7.2fs %8d %9d %8d %11d %5d\n", b.at.Seconds(), b.faults, b.evictions, b.refaults, b.frameWaits, b.free)
	}
	if r.FirstErr != nil {
		fmt.Printf("magecache-error: first failed op: %v\n", r.FirstErr)
	}
}
