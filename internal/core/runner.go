package core

import (
	"fmt"

	"mage/internal/sim"
	"mage/internal/stats"
)

// Access is one memory reference in an application's access stream.
type Access struct {
	Page    uint64
	Write   bool
	Compute sim.Time // CPU work attributed to this access
	// Wait, if non-nil, blocks the thread before the access is issued —
	// used for BSP phase barriers (Metis) and the open-loop fault pacing
	// of Fig 15 (pacedFaultRun). Pending compute time is flushed first.
	Wait func(p *sim.Proc)
	// Skip marks a pure synchronization element: Wait runs but no memory
	// access is performed.
	Skip bool
}

// AccessStream generates a thread's access sequence lazily.
type AccessStream interface {
	Next() (Access, bool)
}

// SliceStream adapts a pre-built slice to AccessStream (tests, tools).
type SliceStream struct {
	Accs []Access
	pos  int
}

// Next implements AccessStream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.Accs) {
		return Access{}, false
	}
	a := s.Accs[s.pos]
	s.pos++
	return a, true
}

// FuncStream adapts a generator function to AccessStream.
type FuncStream func() (Access, bool)

// Next implements AccessStream.
func (f FuncStream) Next() (Access, bool) { return f() }

// ThreadResult is one application thread's outcome.
type ThreadResult struct {
	TID        int
	Accesses   uint64
	Faults     uint64
	FinishedAt sim.Time
}

// RunResult is the outcome of a complete workload execution.
type RunResult struct {
	System  string
	Threads []ThreadResult
	// Makespan is the finish time of the slowest thread (the quantity the
	// paper's jobs/hour numbers derive from).
	Makespan sim.Time
	// Series samples aggregate access throughput over time when sampling
	// was enabled (Fig 11).
	Series *stats.TimeSeries
	// Metrics is the system's final measurement snapshot.
	Metrics Metrics
}

// TotalAccesses sums accesses across threads.
func (r *RunResult) TotalAccesses() uint64 {
	var n uint64
	for _, t := range r.Threads {
		n += t.Accesses
	}
	return n
}

// TotalFaults sums major faults across threads.
func (r *RunResult) TotalFaults() uint64 {
	var n uint64
	for _, t := range r.Threads {
		n += t.Faults
	}
	return n
}

// OpsPerSec is aggregate access throughput over the makespan.
func (r *RunResult) OpsPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.TotalAccesses()) / r.Makespan.Seconds()
}

// JobsPerHour converts the makespan to the paper's jobs/hour metric.
func (r *RunResult) JobsPerHour() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return 3600 / r.Makespan.Seconds()
}

// RunOptions tunes a workload execution.
type RunOptions struct {
	// SampleEvery enables throughput time-series sampling at this period
	// (0 disables).
	SampleEvery sim.Time
}

// Run executes one AccessStream per application thread of a
// single-tenant node to completion and returns its result: RunTenants
// with one stream set and no sampling.
func (n *Node) Run(streams []AccessStream) RunResult {
	return n.RunTenants([][]AccessStream{streams}, RunOptions{})[0]
}

// RunTenants executes each tenant's streams (one AccessStream per app
// thread) to completion and returns one RunResult per tenant, in tenant
// id order. It owns the engine run loop.
//
// Determinism: spawn order is fixed — evictors, then every tenant's app
// threads in tenant id order, then the samplers — so cross-tenant event
// ordering is a pure function of the configuration and streams. A
// single-tenant call reproduces the pre-split spawn sequence (and thread
// names) exactly.
func (n *Node) RunTenants(tenantStreams [][]AccessStream, opts RunOptions) []RunResult {
	run := n.startTenants(tenantStreams, opts)
	n.Eng.Run()
	return run.finish()
}

// nodeRun is one node's spawned-but-not-yet-finished workload: the seam
// between spawning and driving the engine that lets Rack.Run start every
// node's tenants before running the shared engine once.
type nodeRun struct {
	n       *Node
	results []RunResult
}

// startTenants spawns the node's evictors, application threads, and
// samplers in the fixed determinism order, without running the engine.
// The node stops itself (releasing its evictors and samplers) when its
// last thread finishes, so several started nodes can share one run loop.
func (n *Node) startTenants(tenantStreams [][]AccessStream, opts RunOptions) *nodeRun {
	if len(tenantStreams) != len(n.tenants) {
		panic(fmt.Sprintf("core: %d stream sets for %d tenants", len(tenantStreams), len(n.tenants)))
	}
	for _, streams := range tenantStreams {
		if len(streams) == 0 {
			panic("core: no access streams")
		}
	}
	n.SpawnEvictors()

	multi := len(n.tenants) > 1
	results := make([]RunResult, len(n.tenants))
	remaining := 0
	for _, streams := range tenantStreams {
		remaining += len(streams)
	}
	if n.Trace != nil {
		for _, t := range n.tenants {
			n.Trace.ProcessName(t.ID, fmt.Sprintf("tenant %d: %s", t.ID, t.Spec.Name))
		}
	}
	for ti, tn := range n.tenants {
		ti, tn := ti, tn
		streams := tenantStreams[ti]
		results[ti] = RunResult{
			System:  tn.Spec.Name,
			Threads: make([]ThreadResult, len(streams)),
		}
		for i, st := range streams {
			i, st := i, st
			name := fmt.Sprintf("app-%d", i)
			if multi {
				name = fmt.Sprintf("t%d.app-%d", ti, i)
			}
			n.Eng.Spawn(n.procName(name), func(p *sim.Proc) {
				t := tn.NewThread(p, i)
				for {
					a, ok := st.Next()
					if !ok {
						break
					}
					if a.Wait != nil {
						t.Flush()
						a.Wait(p)
					}
					if !a.Skip {
						t.Access(a.Page, a.Write, a.Compute)
					}
				}
				t.Flush()
				results[ti].Threads[i] = ThreadResult{
					TID:        i,
					Accesses:   t.Accesses,
					Faults:     t.Faults,
					FinishedAt: p.Now(),
				}
				remaining--
				if remaining == 0 {
					n.Stop()
				}
			})
		}
	}

	if opts.SampleEvery > 0 {
		for ti, tn := range n.tenants {
			tn := tn
			results[ti].Series = &stats.TimeSeries{}
			series := results[ti].Series
			name := "sampler"
			if multi {
				name = fmt.Sprintf("t%d.sampler", ti)
			}
			n.Eng.Spawn(n.procName(name), func(p *sim.Proc) {
				var m stats.Meter
				for !n.stopped {
					p.Sleep(opts.SampleEvery)
					rate := m.Rate(int64(p.Now()), tn.AccessOps)
					series.Add(int64(p.Now()), rate)
				}
			})
		}
	}
	return &nodeRun{n: n, results: results}
}

// finish computes makespans and snapshots metrics once the engine loop
// has drained.
func (r *nodeRun) finish() []RunResult {
	for ti := range r.results {
		res := &r.results[ti]
		for _, t := range res.Threads {
			if t.FinishedAt > res.Makespan {
				res.Makespan = t.FinishedAt
			}
		}
		res.Metrics = r.n.tenants[ti].Snapshot(res.Makespan)
	}
	return r.results
}
