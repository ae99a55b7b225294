// Package faultinject is the deterministic, virtual-time fault-schedule
// subsystem: it decides — purely from a seeded schedule, never from the
// host — when a simulated far-memory operation fails, stalls, or runs
// over a degraded link, and when the remote memory node is down
// altogether.
//
// The paper's argument is that far-memory performance is governed by how
// the system behaves under stress, not just on the happy path; this
// package supplies the stress. Four fault classes are modeled, matching
// what a real RDMA fabric and memory node can do to a paging system:
//
//   - per-op failures: a READ/WRITE completes with an error (NACK) after
//     one wire round trip — a CQE error on a healthy link;
//   - latency spikes: an op completes but takes an extra, bounded delay —
//     PFC pauses, congestion bursts, remote CPU hiccups;
//   - link-rate degradation: during scheduled windows the line rate is
//     multiplied by a factor < 1 — a flapping link renegotiating speed;
//   - outages: during scheduled windows the memory node is unreachable,
//     so every op times out with no response at all — the crash/recovery
//     cycle the memnode client mirrors in the real world.
//
// Determinism follows the same cell-key discipline as internal/parexp:
// an Injector's seed derives from the experiment's master seed plus the
// grid cell's identity (DeriveSeed), each cell owns one Injector bound to
// its private engine, and every random draw happens in virtual-time event
// order. Fault-injected grids therefore render byte-identical at any
// worker count, exactly like fault-free ones.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"

	"mage/internal/sim"
	"mage/internal/stats"
)

// Window is one half-open [Start, End) interval of virtual time.
type Window struct {
	Start, End sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.Start && t < w.End }

// Plan is a complete fault schedule for one simulated run. The zero Plan
// injects nothing; every knob defaults to the happy path.
type Plan struct {
	// Seed is the injector's RNG seed. Derive it with DeriveSeed from the
	// experiment's master seed and the grid cell's identity so that the
	// schedule is a pure function of the cell, never of host scheduling.
	Seed int64

	// ReadFailProb / WriteFailProb are per-op probabilities of a NACK:
	// the op fails after one base-latency round trip.
	ReadFailProb  float64
	WriteFailProb float64

	// SpikeProb is the per-op probability of a latency spike drawn
	// uniformly from [SpikeMin, SpikeMax].
	SpikeProb          float64
	SpikeMin, SpikeMax sim.Time

	// Outages are the windows during which the memory node is down: every
	// op times out with no response. Windows must be disjoint; New sorts
	// them by start time.
	Outages []Window

	// Degraded are the windows during which the link runs at
	// DegradeFactor × line rate (0 < DegradeFactor ≤ 1). Windows must be
	// disjoint; New sorts them.
	Degraded      []Window
	DegradeFactor float64
}

// Enabled reports whether the plan can inject anything at all.
func (pl *Plan) Enabled() bool {
	if pl == nil {
		return false
	}
	return pl.ReadFailProb > 0 || pl.WriteFailProb > 0 || pl.SpikeProb > 0 ||
		len(pl.Outages) > 0 || len(pl.Degraded) > 0
}

// DeriveSeed maps (master seed, cell identity) to an injector seed with
// an FNV-1a fold over the parts. The same discipline as parexp cell
// seeding: two distinct cells get unrelated streams, and the result never
// depends on worker identity or completion order.
func DeriveSeed(master int64, parts ...string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(master) >> (8 * i)))
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			mix(p[i])
		}
		mix(0xff) // part separator so ("ab","c") != ("a","bc")
	}
	return int64(h)
}

// PeriodicOutages builds count outage windows of length down, one per
// period, starting at start. It is the schedule shape the fault-tolerance
// sweep uses: a memory node that crashes on a fixed cadence and recovers
// after a fixed repair time.
func PeriodicOutages(start, period, down sim.Time, count int) []Window {
	if period <= 0 || down <= 0 || count <= 0 {
		return nil
	}
	if down > period {
		down = period
	}
	out := make([]Window, 0, count)
	for i := 0; i < count; i++ {
		s := start + sim.Time(i)*period
		out = append(out, Window{Start: s, End: s + down})
	}
	return out
}

// DropKind classifies how an injected failure presents to the caller.
type DropKind int

const (
	// DropNone: the op completes (possibly slowly).
	DropNone DropKind = iota
	// DropNack: the op fails with an error response after one
	// base-latency round trip.
	DropNack
	// DropTimeout: the op gets no response at all; the caller burns its
	// full per-op timeout before declaring it dead.
	DropTimeout
)

// Outcome is the injector's verdict for one operation.
type Outcome struct {
	Drop DropKind
	// ExtraLatency is added on top of the base latency (spikes).
	ExtraLatency sim.Time
	// RateFactor multiplies the line rate for this op's serialization
	// (1.0 nominal, < 1 during degraded windows).
	RateFactor float64
}

// Injector evaluates a Plan over one engine's virtual time. It is
// simulation-side state: single-threaded by the DES contract, one per
// system, never shared across host goroutines.
type Injector struct {
	plan Plan
	rng  *rand.Rand

	// Injection tallies, for observability.
	ReadNacks     stats.Counter
	WriteNacks    stats.Counter
	ReadTimeouts  stats.Counter
	WriteTimeouts stats.Counter
	Spikes        stats.Counter
}

// New validates the plan and builds an injector with its seeded RNG.
func New(plan Plan) (*Injector, error) {
	if plan.ReadFailProb < 0 || plan.ReadFailProb > 1 ||
		plan.WriteFailProb < 0 || plan.WriteFailProb > 1 ||
		plan.SpikeProb < 0 || plan.SpikeProb > 1 {
		return nil, fmt.Errorf("faultinject: probabilities must be in [0,1]")
	}
	if plan.SpikeProb > 0 && (plan.SpikeMin < 0 || plan.SpikeMax < plan.SpikeMin) {
		return nil, fmt.Errorf("faultinject: spike range [%v,%v] invalid", plan.SpikeMin, plan.SpikeMax)
	}
	if len(plan.Degraded) > 0 && (plan.DegradeFactor <= 0 || plan.DegradeFactor > 1) {
		return nil, fmt.Errorf("faultinject: DegradeFactor %v must be in (0,1]", plan.DegradeFactor)
	}
	plan.Outages = sortedWindows(plan.Outages, "Outages")
	plan.Degraded = sortedWindows(plan.Degraded, "Degraded")
	return &Injector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}, nil
}

// MustNew is New that panics on an invalid plan.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// sortedWindows copies, sorts, and validates a disjoint window list.
func sortedWindows(ws []Window, what string) []Window {
	out := make([]Window, len(ws))
	copy(out, ws)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for i, w := range out {
		if w.End <= w.Start {
			panic(fmt.Sprintf("faultinject: %s[%d] empty window [%v,%v)", what, i, w.Start, w.End))
		}
		if i > 0 && w.Start < out[i-1].End {
			panic(fmt.Sprintf("faultinject: %s windows overlap at %v", what, w.Start))
		}
	}
	return out
}

// windowAt finds the window containing t in a sorted disjoint list.
func windowAt(ws []Window, t sim.Time) (Window, bool) {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].End > t })
	if i < len(ws) && ws[i].Contains(t) {
		return ws[i], true
	}
	return Window{}, false
}

// Down reports whether the memory node is inside an outage window at t.
func (in *Injector) Down(t sim.Time) bool {
	_, ok := windowAt(in.plan.Outages, t)
	return ok
}

// NextRecovery returns the end of the outage window containing t, or t
// itself when the node is up: the instant a degraded-mode waiter should
// re-probe the remote side.
func (in *Injector) NextRecovery(t sim.Time) sim.Time {
	if w, ok := windowAt(in.plan.Outages, t); ok {
		return w.End
	}
	return t
}

// outcome draws one op verdict. Probability gates are checked before any
// RNG draw so a zero-probability plan consumes no randomness for that
// fault class — the stream stays comparable across plans that differ only
// in disabled knobs.
func (in *Injector) outcome(t sim.Time, failProb float64, nacks, timeouts *stats.Counter) Outcome {
	if in.Down(t) {
		timeouts.Inc()
		return Outcome{Drop: DropTimeout}
	}
	if failProb > 0 && in.rng.Float64() < failProb {
		nacks.Inc()
		return Outcome{Drop: DropNack}
	}
	o := Outcome{RateFactor: 1}
	if in.plan.SpikeProb > 0 && in.rng.Float64() < in.plan.SpikeProb {
		span := int64(in.plan.SpikeMax - in.plan.SpikeMin)
		o.ExtraLatency = in.plan.SpikeMin
		if span > 0 {
			o.ExtraLatency += sim.Time(in.rng.Int63n(span + 1))
		}
		in.Spikes.Inc()
	}
	if _, ok := windowAt(in.plan.Degraded, t); ok {
		o.RateFactor = in.plan.DegradeFactor
	}
	return o
}

// ReadOutcome decides the fate of one remote read issued at t.
func (in *Injector) ReadOutcome(t sim.Time) Outcome {
	return in.outcome(t, in.plan.ReadFailProb, &in.ReadNacks, &in.ReadTimeouts)
}

// WriteOutcome decides the fate of one remote write issued at t.
func (in *Injector) WriteOutcome(t sim.Time) Outcome {
	return in.outcome(t, in.plan.WriteFailProb, &in.WriteNacks, &in.WriteTimeouts)
}

// Jitter spreads d by ±frac deterministically: the retry/backoff layer
// uses it so concurrent retriers don't synchronize into thundering herds,
// without ever touching host randomness.
func (in *Injector) Jitter(d sim.Time, frac float64) sim.Time {
	if d <= 0 || frac <= 0 {
		return d
	}
	span := float64(d) * frac
	j := sim.Time((in.rng.Float64()*2 - 1) * span)
	out := d + j
	if out < 1 {
		out = 1
	}
	return out
}
