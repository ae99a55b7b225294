package workload

import (
	"sync" //magevet:ok memo of a pure function: a Kronecker graph is the same whichever parexp worker generates it first, so sharing it cannot reach a digest

	"mage/internal/core"
	"mage/internal/sim"
)

// GapBSParams sizes the GapBS PageRank workload. The paper runs PageRank
// over a 20 GB Kronecker working set (1.5 B edges, 41.7 M vertices);
// Scale and EdgeFactor shrink it proportionally.
//
// The memory layout mirrors real GAPBS pull-style PageRank: the working
// set is dominated by the two CSR edge arrays (incoming CSR walked every
// iteration, outgoing CSR for the contribution pass), while the
// per-vertex score array is a small fraction of the WSS. That ratio is
// what gives the paper its far-memory behaviour — the randomly-read score
// pages stay resident at any offload level, and the misses are dominated
// by the per-iteration sequential re-scan of whatever slice of the edge
// arrays was evicted.
type GapBSParams struct {
	Scale      int // 2^Scale vertices
	EdgeFactor int
	Iterations int
	// BytesPerVertex is the per-vertex score state (scores + outgoing
	// contributions; 16 B/vertex like GAPBS).
	BytesPerVertex int64
	// EdgeCompute and VertexCompute are per-edge / per-vertex CPU costs
	// in ns (0 = calibrated defaults chosen so the ideal far-memory curve
	// lands where Fig 1's does).
	EdgeCompute   sim.Time
	VertexCompute sim.Time
	Seed          int64
}

// DefaultGapBS returns a laptop-scale PageRank: a scale-15 Kronecker
// graph (32 k vertices, ~1 M directed edges), two iterations.
func DefaultGapBS() GapBSParams {
	return GapBSParams{Scale: 15, EdgeFactor: 32, Iterations: 2, BytesPerVertex: 16, Seed: 42}
}

// Per-access compute costs (ns): PageRank does one fused multiply-add per
// edge; the default folds in the DRAM gather cost measured on the paper's
// class of hardware.
const (
	gapbsEdgeCompute   = 17
	gapbsVertexCompute = 50
)

func (p *GapBSParams) edgeCompute() sim.Time {
	if p.EdgeCompute > 0 {
		return p.EdgeCompute
	}
	return gapbsEdgeCompute
}

func (p *GapBSParams) vertexCompute() sim.Time {
	if p.VertexCompute > 0 {
		return p.VertexCompute
	}
	return gapbsVertexCompute
}

// GapBS is PageRank over a Kronecker graph: per-iteration sequential
// sweeps over the CSR arrays with a random score-array read per edge.
type GapBS struct {
	p      GapBSParams
	g      *Graph
	scores region // per-vertex rank state (hot, randomly read)
	offs   region // CSR offsets (sequential)
	inCSR  region // incoming edge array, 8 B/edge (sequential, walked per iteration)
	outCSR region // outgoing edge array, 4 B/edge (sequential contribution pass)
	total  uint64
}

// graphCache memoizes generated graphs: experiment sweeps rebuild the
// same workload dozens of times and Kronecker generation dominates their
// host time at larger scales. Graphs are immutable after generation, and
// the cells parexp workers run at once share the cache.
var graphCache sync.Map // KroneckerParams -> *Graph

// NewGapBS generates the graph (memoized) and lays out the address space.
func NewGapBS(p GapBSParams) *GapBS {
	kp := DefaultKronecker(p.Scale, p.EdgeFactor, p.Seed)
	v, ok := graphCache.Load(kp)
	if !ok {
		v, _ = graphCache.LoadOrStore(kp, GenerateKronecker(kp))
	}
	g := v.(*Graph)
	var l layout
	w := &GapBS{p: p, g: g}
	w.scores = l.add(int64(g.NumVertices) * p.BytesPerVertex)
	w.offs = l.add(int64(g.NumVertices+1) * 8)
	w.inCSR = l.add(g.NumEdges() * 8)
	w.outCSR = l.add(g.NumEdges() * 4)
	w.total = l.next
	return w
}

// Name implements Workload.
func (w *GapBS) Name() string { return "gapbs-pagerank" }

// NumPages implements Workload.
func (w *GapBS) NumPages() uint64 { return w.total }

// Graph exposes the underlying graph (tests, examples).
func (w *GapBS) Graph() *Graph { return w.g }

// Streams implements Workload: thread i processes the contiguous vertex
// shard OpenMP static scheduling would give it.
func (w *GapBS) Streams(threads int, seed int64) []core.AccessStream {
	out := make([]core.AccessStream, threads)
	for t := 0; t < threads; t++ {
		lo, hi := shard(w.g.NumVertices, threads, t)
		out[t] = w.threadStream(lo, hi)
	}
	_ = seed // deterministic given the graph; kept for interface symmetry
	return out
}

// threadStream yields, per iteration and per vertex: the offset read, the
// sequential in-CSR walk (one access per page boundary), a random score
// read per in-edge carrying the per-edge compute, a stride through the
// thread's slice of the out-CSR, and the score write-back.
func (w *GapBS) threadStream(lo, hi int) core.AccessStream {
	iter, v := 0, lo
	var pending []core.Access
	pos := 0
	const noPage = ^uint64(0)
	lastOffPage := noPage
	lastInPage := noPage
	lastOutPage := noPage
	refill := func() bool {
		pending = pending[:0]
		pos = 0
		for len(pending) == 0 {
			if iter >= w.p.Iterations {
				return false
			}
			if v >= hi {
				iter++
				v = lo
				lastOffPage, lastInPage, lastOutPage = noPage, noPage, noPage
				continue
			}
			// Offset array read (page-boundary granularity).
			if pg := w.offs.page(int64(v) * 8); pg != lastOffPage {
				lastOffPage = pg
				pending = append(pending, core.Access{Page: pg, Compute: w.p.vertexCompute()})
			}
			start, end := w.g.Offsets[v], w.g.Offsets[v+1]
			for e := start; e < end; e++ {
				// Incoming CSR walked sequentially: page boundaries only.
				if pg := w.inCSR.page(e * 8); pg != lastInPage {
					lastInPage = pg
					pending = append(pending, core.Access{Page: pg, Compute: w.p.edgeCompute()})
				}
				// Random score gather of the in-neighbor: the per-edge
				// work of pull PageRank.
				u := w.g.Neighbors[e]
				pending = append(pending, core.Access{
					Page:    w.scores.page(int64(u) * w.p.BytesPerVertex),
					Compute: w.p.edgeCompute(),
				})
				// Outgoing CSR contribution pass (sequential, page
				// boundaries only).
				if pg := w.outCSR.page(e * 4); pg != lastOutPage {
					lastOutPage = pg
					pending = append(pending, core.Access{Page: pg, Compute: w.p.edgeCompute()})
				}
			}
			// Score write-back for v.
			pending = append(pending, core.Access{
				Page: w.scores.page(int64(v) * w.p.BytesPerVertex), Write: true,
				Compute: w.p.vertexCompute(),
			})
			v++
		}
		return true
	}
	return core.FuncStream(func() (core.Access, bool) {
		if pos >= len(pending) {
			if !refill() {
				return core.Access{}, false
			}
		}
		a := pending[pos]
		pos++
		return a, true
	})
}
