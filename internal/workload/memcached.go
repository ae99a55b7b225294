package workload

import (
	"fmt"
	"math/rand"

	"mage/internal/core"
	"mage/internal/sim"
	"mage/internal/stats"
)

// MemcachedParams sizes the latency-critical KV workload: Facebook's USR
// pool (99.8 % GET / 0.2 % SET) with Zipf(0.99) key popularity (§6.3).
type MemcachedParams struct {
	// Keys is the number of KV pairs (paper: 21 M).
	Keys int64
	// ValueBytes is the value size (USR values are small).
	ValueBytes int64
	// Theta is the Zipfian skew (0.99, YCSB-aligned).
	Theta float64
	// GetFraction is the GET share of operations (0.998).
	GetFraction float64
	// ComputePerOp is the request-processing CPU cost beyond memory
	// accesses (parsing, hashing, socket work).
	ComputePerOp sim.Time
}

// DefaultMemcached returns a scaled-down configuration.
func DefaultMemcached() MemcachedParams {
	return MemcachedParams{
		Keys:         1 << 19,
		ValueBytes:   256,
		Theta:        0.99,
		GetFraction:  0.998,
		ComputePerOp: 1500,
	}
}

// Memcached is the in-memory KV store: a hash-index region plus a slab
// region holding values. A GET touches one index page and one value page;
// a SET additionally dirties the value page. It runs open-loop only
// (RunOpenLoop), so it is not a Workload.
type Memcached struct {
	p     MemcachedParams
	index region
	slab  region
}

// NewMemcached lays out the store.
func NewMemcached(p MemcachedParams) *Memcached {
	var l layout
	w := &Memcached{p: p}
	w.index = l.add(p.Keys * 16) // 16 B bucket entries
	w.slab = l.add(p.Keys * p.ValueBytes)
	return w
}

// NumPages returns the pages of the index and the slab together.
func (w *Memcached) NumPages() uint64 { return w.index.pages + w.slab.pages }

// requestAccesses appends one request's page accesses to buf.
func (w *Memcached) requestAccesses(buf []core.Access, rng *rand.Rand, zipf *Scrambled) []core.Access {
	key := zipf.Next(rng)
	isSet := rng.Float64() >= w.p.GetFraction
	buf = append(buf,
		core.Access{Page: w.index.page(key * 16), Compute: w.p.ComputePerOp / 2},
		core.Access{Page: w.slab.page(key * w.p.ValueBytes), Write: isSet, Compute: w.p.ComputePerOp / 2},
	)
	return buf
}

// LatencyResult is the outcome of an open-loop run.
type LatencyResult struct {
	OfferedOps   float64 // offered load, ops/s
	AchievedOps  float64 // completed ops/s
	MeanNs       float64
	P50Ns        int64
	P99Ns        int64
	MaxNs        int64
	Completed    uint64
	QueueDropped uint64
}

func (r LatencyResult) String() string {
	return fmt.Sprintf("offered=%.0f achieved=%.0f p50=%.1fµs p99=%.1fµs",
		r.OfferedOps, r.AchievedOps, float64(r.P50Ns)/1e3, float64(r.P99Ns)/1e3)
}

// RunOpenLoop drives a single-tenant node with Poisson arrivals at
// loadOps requests/s for the given virtual duration across `threads`
// server threads, and reports sojourn-time (queueing + service)
// percentiles — the p99 the paper plots in Fig 13.
//
// The caller must pass a freshly built node; RunOpenLoop owns its
// engine.
func (w *Memcached) RunOpenLoop(n *core.Node, threads int, loadOps float64, duration sim.Time, seed int64) LatencyResult {
	type request struct{ arrived sim.Time }
	queues := make([]*sim.Chan[request], threads)
	for i := range queues {
		queues[i] = sim.NewChan[request](4096)
	}
	lat := stats.NewHistogram()
	var completed, dropped uint64

	tn := n.Tenants()[0]
	n.SpawnEvictors()

	// Arrival process: Poisson with mean interarrival 1/load.
	n.Eng.Spawn("mc-arrivals", func(p *sim.Proc) {
		rng := seedRNG(seed)
		mean := 1e9 / loadOps
		i := 0
		for p.Now() < duration {
			p.Sleep(sim.Time(rng.ExpFloat64() * mean))
			q := queues[i%threads]
			i++
			if !q.TryPut(request{arrived: p.Now()}) {
				dropped++ // server far behind: shed load
			}
		}
		for _, q := range queues {
			q.Close()
		}
	})

	remaining := threads
	for t := 0; t < threads; t++ {
		t := t
		n.Eng.Spawn(fmt.Sprintf("mc-server-%d", t), func(p *sim.Proc) {
			th := tn.NewThread(p, t)
			rng := threadRNG(seed, t, 271828)
			zipf := NewScrambled(w.p.Keys, w.p.Theta)
			var buf []core.Access
			for {
				req, ok := queues[t].Get(p)
				if !ok {
					break
				}
				buf = w.requestAccesses(buf[:0], rng, zipf)
				for _, a := range buf {
					th.Access(a.Page, a.Write, a.Compute)
				}
				th.Flush()
				lat.Record(int64(p.Now() - req.arrived))
				completed++
			}
			th.Flush()
			remaining--
			if remaining == 0 {
				n.Stop() // lets eviction threads exit so the engine drains
			}
		})
	}

	n.Eng.Run()

	elapsed := duration
	res := LatencyResult{
		OfferedOps:   loadOps,
		AchievedOps:  float64(completed) / elapsed.Seconds(),
		MeanNs:       lat.Mean(),
		P50Ns:        lat.P50(),
		P99Ns:        lat.P99(),
		MaxNs:        lat.Max(),
		Completed:    completed,
		QueueDropped: dropped,
	}
	return res
}
