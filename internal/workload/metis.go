package workload

import (
	"mage/internal/core"
	"mage/internal/sim"
)

// MetisParams sizes the Metis MapReduce workload (word-count-style over a
// Wikipedia-sized corpus in the paper): a map phase streaming the input
// and scattering writes into an intermediate region, a BSP barrier, then
// a reduce phase streaming the intermediate region and writing output.
// The barrier is the explicit phase change of §6.2.
type MetisParams struct {
	// InputPages / IntermediatePages / OutputPages size the regions.
	InputPages        uint64
	IntermediatePages uint64
	OutputPages       uint64
	// EmitsPerInputPage is how many intermediate writes each input page
	// produces during map.
	EmitsPerInputPage int
	// MapCompute / ReduceCompute are per-page CPU costs.
	MapCompute    sim.Time
	ReduceCompute sim.Time
}

// DefaultMetis returns a scaled-down configuration in which the map
// working set (input) and the reduce working set (intermediate) are
// distinct, so the barrier forces a full working-set shift.
func DefaultMetis() MetisParams {
	return MetisParams{
		InputPages:        20 << 10,
		IntermediatePages: 12 << 10,
		OutputPages:       2 << 10,
		EmitsPerInputPage: 2,
		MapCompute:        900,
		ReduceCompute:     700,
	}
}

// Metis is the phase-changing MapReduce workload.
type Metis struct {
	p      MetisParams
	input  region
	inter  region
	output region
}

// NewMetis lays out the three regions.
func NewMetis(p MetisParams) *Metis {
	var l layout
	w := &Metis{p: p}
	w.input = l.addPages(p.InputPages)
	w.inter = l.addPages(p.IntermediatePages)
	w.output = l.addPages(p.OutputPages)
	return w
}

// Name implements Workload.
func (w *Metis) Name() string { return "metis" }

// ZeroFillRanges returns the intermediate and output regions: the map
// phase allocates them at run time, so their first faults are anonymous
// zero-fills with no remote content (this is why the paper's map phase
// stays near-baseline under offloading — only the input is real data).
func (w *Metis) ZeroFillRanges() [][2]uint64 {
	return [][2]uint64{
		{w.inter.base, w.inter.base + w.inter.pages},
		{w.output.base, w.output.base + w.output.pages},
	}
}

// NumPages implements Workload.
func (w *Metis) NumPages() uint64 {
	return w.input.pages + w.inter.pages + w.output.pages
}

// Streams implements Workload. The streams of one call share a phase
// barrier of their own, which the map→reduce transition waits on.
func (w *Metis) Streams(threads int, seed int64) []core.AccessStream {
	b := NewBarrier(threads)
	out := make([]core.AccessStream, threads)
	for t := 0; t < threads; t++ {
		out[t] = &metisStream{next: w.threadStream(b, threads, t, seed), barrier: b}
	}
	return out
}

// metisStream is one thread of a Metis stream set, which knows its set's
// phase barrier.
type metisStream struct {
	next    core.FuncStream
	barrier *Barrier
}

// Next implements core.AccessStream.
func (s *metisStream) Next() (core.Access, bool) { return s.next() }

// PhaseSwitchAt is when a Metis stream set that ran switched from map to
// reduce: when its last thread reached the phase barrier. It is zero for
// a set that never did, or is not Metis's.
func PhaseSwitchAt(set []core.AccessStream) sim.Time {
	if len(set) == 0 {
		return 0
	}
	if s, ok := set[0].(*metisStream); ok {
		return s.barrier.last
	}
	return 0
}

func (w *Metis) threadStream(b *Barrier, threads, t int, seed int64) core.FuncStream {
	rng := threadRNG(seed, t, 6151)
	inLo, inHi := shard(int(w.input.pages), threads, t)
	interLo, interHi := shard(int(w.inter.pages), threads, t)
	outLo, outHi := shard(int(w.output.pages), threads, t)

	type phase int
	const (
		phaseMap phase = iota
		phaseBarrier
		phaseReduce
		phaseDone
	)
	ph := phaseMap
	pg := inLo
	emits := 0
	rpg := interLo
	outPending := false
	return core.FuncStream(func() (core.Access, bool) {
		for {
			switch ph {
			case phaseMap:
				if pg >= inHi {
					ph = phaseBarrier
					continue
				}
				if emits > 0 {
					emits--
					// Scatter an intermediate write (hash partitioning).
					return core.Access{
						Page:  w.inter.pageIdx(uint64(rng.Int63n(int64(w.inter.pages)))),
						Write: true, Compute: w.p.MapCompute / 4,
					}, true
				}
				a := core.Access{Page: w.input.base + uint64(pg), Compute: w.p.MapCompute}
				pg++
				emits = w.p.EmitsPerInputPage
				return a, true
			case phaseBarrier:
				ph = phaseReduce
				return core.Access{Skip: true, Wait: b.Wait}, true
			case phaseReduce:
				if outPending {
					outPending = false
					op := outLo + (rpg-interLo)/8
					if op >= outHi {
						op = outHi - 1
					}
					if op < outLo {
						op = outLo
					}
					return core.Access{
						Page: w.output.base + uint64(op), Write: true,
						Compute: w.p.ReduceCompute / 4,
					}, true
				}
				if rpg >= interHi {
					ph = phaseDone
					continue
				}
				a := core.Access{Page: w.inter.base + uint64(rpg), Compute: w.p.ReduceCompute}
				rpg++
				// Every 8th reduce page also emits an output write.
				if (rpg-interLo)%8 == 0 && outHi > outLo {
					outPending = true
				}
				return a, true
			default:
				return core.Access{}, false
			}
		}
	})
}
