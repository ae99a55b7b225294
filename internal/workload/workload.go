package workload

import (
	"math/rand"

	"mage/internal/core"
	"mage/internal/sim"
)

// PageBytes is the page size all layouts assume.
const PageBytes = 4096

// Workload produces per-thread access streams over a page-numbered
// address space of NumPages pages.
type Workload interface {
	// Name identifies the workload (Table 1).
	Name() string
	// NumPages is the working-set size in pages.
	NumPages() uint64
	// Streams builds one access stream per thread, for one run. Streams
	// from one call may synchronize with each other (Metis's phase
	// barrier), never with the streams of another call.
	Streams(threads int, seed int64) []core.AccessStream
}

// threadRNG returns the deterministic per-thread random source all
// workloads use: thread streams must diverge from each other, and a run
// with the same seed must reproduce the same access sequence exactly
// (never use the global rand functions — magevet enforces this). stride
// is a per-workload constant decorrelating stream families that share a
// seed.
func threadRNG(seed int64, thread int, stride int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(thread)*stride))
}

// seedRNG returns a deterministic source for single-stream generators.
func seedRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// region is a contiguous page range in a workload's layout.
type region struct {
	base  uint64
	pages uint64
}

// page maps a byte offset within the region to its page number.
func (r region) page(off int64) uint64 {
	pg := r.base + uint64(off)/PageBytes
	// Overflow-safe form of pg >= base+pages: pg >= base by
	// construction, so the subtraction cannot wrap.
	if pg-r.base >= r.pages {
		pg = r.base + r.pages - 1
	}
	return pg
}

// pageIdx maps an index directly to the region's idx-th page.
func (r region) pageIdx(idx uint64) uint64 {
	return r.base + idx%r.pages
}

// layout allocates consecutive regions in page space.
type layout struct{ next uint64 }

func (l *layout) add(bytes int64) region {
	pages := uint64((bytes + PageBytes - 1) / PageBytes)
	if pages == 0 {
		pages = 1
	}
	r := region{base: l.next, pages: pages}
	l.next += pages
	return r
}

func (l *layout) addPages(pages uint64) region {
	if pages == 0 {
		pages = 1
	}
	r := region{base: l.next, pages: pages}
	l.next += pages
	return r
}

// Barrier is a reusable BSP barrier for sim processes: the n-th arrival
// releases everyone, and is remembered.
type Barrier struct {
	n       int
	arrived int
	q       sim.WaitQueue
	last    sim.Time // when the latest round's n-th party arrived
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(p *sim.Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived, b.last = 0, p.Now()
		b.q.Broadcast()
		return
	}
	b.q.Wait(p)
}

// shard splits [0, n) into t near-equal chunks and returns chunk i.
func shard(n, t, i int) (lo, hi int) {
	lo = i * n / t
	hi = (i + 1) * n / t
	return lo, hi
}
