// Package tlbsim models per-core translation lookaside buffers and the
// shootdown protocol used to keep them coherent during page eviction
// (EP₂ in the paper's workflow, §3.3.1).
//
// Each core's TLB is a bounded set of virtual page numbers with FIFO
// replacement: a ring of slots in fill order and an open-addressed index
// over it, both built on the core's first Touch, so a core that never
// runs a thread costs a few words. Invalidation on remote cores requires
// an IPI broadcast via an apic.Fabric; the handler cost depends on how
// many pages are being invalidated — per-page INVLPG up to a threshold,
// then one full flush (writing cr3), matching how Linux chooses between
// the two.
package tlbsim

import (
	"fmt"
	"math/bits"
	"slices"

	"mage/internal/apic"
	"mage/internal/invariant"
	"mage/internal/sim"
	"mage/internal/stats"
	"mage/internal/topo"
)

// TLB is one core's translation cache: a bounded set of virtual page
// numbers with FIFO replacement.
//
// The entries sit in a ring of capacity slots, filled in FIFO order, and
// an index finds a page's slot: a power-of-two table of at least twice
// capacity cells, each 0 (empty) or 1 + the ring position of a slot. A
// page probes linearly from its home cell, and a deletion closes its
// hole by shifting the chain behind it back, so that no chain has a gap.
// The index names at most one slot per page and holds at most capacity
// cells, so it is never more than half full. Ring and index are built on
// the first Touch: until then Contains, Hit, FlushPage and FlushAll
// allocate nothing.
//
// FlushAll is O(1): every ring slot carries the generation it was filled
// in, and a flush bumps the current one. An entry is cached only while
// its slot's stamp is current; the index may keep stale cells, at most
// one per slot, until their slot is reused. Only when the generation
// counter wraps does a flush clear the index and the ring.
type TLB struct {
	capacity int
	ring     []slot  // nil until the first Touch
	index    []int32 // 1 + a ring position per occupied cell; nil until the first Touch
	shift    uint    // 64 - log2(len(index)): a page's home is its hash's top bits
	pos      int
	gen      uint32 // the current generation, bumped by FlushAll
	live     int    // entries whose slot is stamped gen

	Hits   uint64
	Misses uint64
}

// slot is one ring position: the page it holds and the generation it was
// filled in.
type slot struct {
	page uint64
	gen  uint32
}

const emptySlot = ^uint64(0)

// NewTLB returns a TLB holding up to capacity entries. It allocates its
// ring and index on the first Touch.
func NewTLB(capacity int) *TLB { return &TLB{capacity: max(capacity, 1)} }

// build allocates the ring and the index, empty.
func (t *TLB) build() {
	cells := 2
	for cells < 2*t.capacity {
		cells <<= 1
	}
	t.ring = make([]slot, t.capacity)
	t.index = make([]int32, cells)
	t.shift = uint(64 - bits.TrailingZeros(uint(cells)))
	t.reset()
}

// reset empties the index and the ring.
func (t *TLB) reset() {
	clear(t.index)
	for i := range t.ring {
		t.ring[i] = slot{page: emptySlot}
	}
	t.live = 0
}

// home is the cell page's probe starts from (Fibonacci hashing).
func (t *TLB) home(page uint64) int { return int(page * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns the cell that names page's slot, or, if none does, the
// empty cell that ends page's probe. The index must be built.
func (t *TLB) find(page uint64) (int, bool) {
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		c := t.index[i]
		if c == 0 {
			return i, false
		}
		if t.ring[c-1].page == page {
			return i, true
		}
	}
}

// remove empties cell i. The cells behind it in the chain move back into
// the hole when their probe passes it, so that no chain has a gap.
func (t *TLB) remove(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at i if i lies on its probe from
		// its home to j.
		if (j-t.home(t.ring[t.index[j]-1].page))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// cached reports whether page is in the TLB: its cell names a slot
// stamped with the current generation. No entry is current while live
// is 0, which is also the case before the first Touch.
func (t *TLB) cached(page uint64) bool {
	if t.live == 0 {
		return false
	}
	i, ok := t.find(page)
	return ok && t.ring[t.index[i]-1].gen == t.gen
}

// Touch looks up page, inserting it on a miss (evicting the oldest entry
// if full), and reports whether it hit. The page number emptySlot (all
// ones) is reserved and must not be used.
func (t *TLB) Touch(page uint64) bool {
	if t.ring == nil {
		t.build()
	}
	i, ok := t.find(page)
	if ok && t.ring[t.index[i]-1].gen == t.gen {
		t.Hits++
		return true
	}
	t.Misses++
	if old := t.ring[t.pos]; old.page != emptySlot {
		// Only evict if the slot still owns the mapping (FlushPage may
		// have removed it already, or the page moved to a newer slot
		// after a FlushAll).
		if j, owned := t.find(old.page); owned && int(t.index[j]) == t.pos+1 {
			t.remove(j)
			if old.gen == t.gen {
				t.live--
			}
			i, _ = t.find(page) // the shift may have moved page's cell or its probe's end
		}
	}
	t.ring[t.pos] = slot{page: page, gen: t.gen}
	t.index[i] = int32(t.pos + 1)
	t.live++
	t.pos = (t.pos + 1) % t.capacity
	return false
}

// Hit reports whether page is cached and, if it is, counts the hit as
// Touch would: one probe for an access that hits. A miss is neither
// counted nor filled; the caller walks the page table and Touches.
func (t *TLB) Hit(page uint64) bool {
	if t.cached(page) {
		t.Hits++
		return true
	}
	return false
}

// Contains reports whether page is cached without updating statistics.
func (t *TLB) Contains(page uint64) bool { return t.cached(page) }

// Len returns the number of cached entries.
func (t *TLB) Len() int { return t.live }

// FlushPage removes one page if present.
func (t *TLB) FlushPage(page uint64) {
	if t.index == nil {
		return
	}
	if i, ok := t.find(page); ok {
		s := t.index[i] - 1
		if t.ring[s].gen == t.gen {
			t.live--
		}
		t.remove(i)
		t.ring[s].page = emptySlot
	}
}

// FlushAll empties the TLB (the cr3-write path) by starting a new
// generation. When the counter wraps, a stamp from 2^32 flushes ago would
// read as current again, so that flush empties the index and ring instead.
func (t *TLB) FlushAll() {
	t.live = 0
	if t.gen++; t.gen == 0 {
		t.reset()
	}
}

// verify checks the index against the ring: every occupied cell names a
// slot that holds a page, and is the cell that page's probe reaches from
// its home, with no empty cell and no other cell for the page before it;
// at most capacity cells are occupied; and live counts the cells whose
// slot is stamped with the current generation. It returns the first
// violation found, or nil.
func (t *TLB) verify() error {
	if t.index != nil && !slices.Contains(t.index, 0) { // a probe needs an empty cell to end
		return fmt.Errorf("tlbsim: all %d index cells are occupied", len(t.index))
	}
	used, live := 0, 0
	for i, c := range t.index {
		if c == 0 {
			continue
		}
		if c < 0 || int(c) > len(t.ring) {
			return fmt.Errorf("tlbsim: cell %d names slot %d of %d", i, c-1, len(t.ring))
		}
		used++
		sl := t.ring[c-1]
		if sl.page == emptySlot {
			return fmt.Errorf("tlbsim: cell %d names empty slot %d", i, c-1)
		}
		if j, ok := t.find(sl.page); !ok || j != i {
			return fmt.Errorf("tlbsim: cell %d names page %d in slot %d, but its probe from cell %d reaches cell %d (found %v)",
				i, sl.page, c-1, t.home(sl.page), j, ok)
		}
		if sl.gen == t.gen {
			live++
		}
	}
	if used > t.capacity {
		return fmt.Errorf("tlbsim: %d index cells exceed capacity %d", used, t.capacity)
	}
	if live != t.live {
		return fmt.Errorf("tlbsim: the index names %d live entries but the count is %d", live, t.live)
	}
	return nil
}

// Costs parameterizes shootdown handler time.
type Costs struct {
	// Invlpg is the per-page invalidation cost inside the handler.
	Invlpg sim.Time
	// FullFlush is the cost of flushing the whole TLB.
	FullFlush sim.Time
	// FullFlushThreshold: batches larger than this use FullFlush.
	FullFlushThreshold int
	// LocalFlush is the initiator-side cost of invalidating its own TLB.
	LocalFlush sim.Time
}

// DefaultCosts returns handler costs calibrated to commodity x86.
func DefaultCosts() Costs {
	return Costs{
		Invlpg:             120,
		FullFlush:          600,
		FullFlushThreshold: 33,
		LocalFlush:         150,
	}
}

// Shooter performs TLB shootdowns over an IPI fabric and tracks the TLB of
// every core.
type Shooter struct {
	fabric *apic.Fabric
	costs  Costs
	tlbs   []TLB // one per core, each built on its first Touch

	// Shootdowns counts broadcast operations (not individual IPIs).
	Shootdowns stats.Counter
	// PagesInvalidated counts pages covered by all shootdowns.
	PagesInvalidated stats.Counter
	// Latency records the initiator-observed time per shootdown — the
	// "TLB shootdown latency" series of Fig 7.
	Latency *stats.Histogram
}

// NewShooter builds a shooter over fabric with one TLB per core of
// tlbCapacity entries. A TLB's ring and index are built on its first
// Touch, so the cores no thread runs on hold neither.
func NewShooter(fabric *apic.Fabric, machine *topo.Machine, costs Costs, tlbCapacity int) *Shooter {
	s := &Shooter{
		fabric:  fabric,
		costs:   costs,
		tlbs:    make([]TLB, machine.NumCores()),
		Latency: stats.NewHistogram(),
	}
	for i := range s.tlbs {
		s.tlbs[i] = *NewTLB(tlbCapacity)
	}
	return s
}

// TLBOf returns the TLB of a core.
func (s *Shooter) TLBOf(c topo.CoreID) *TLB { return &s.tlbs[c] }

// HandlerCost returns the per-target handler time for invalidating npages.
func (s *Shooter) HandlerCost(npages int) sim.Time {
	if npages > s.costs.FullFlushThreshold {
		return s.costs.FullFlush
	}
	return sim.Time(npages) * s.costs.Invlpg
}

// Completion tracks an asynchronous shootdown.
type Completion struct {
	inner   *apic.Completion
	shooter *Shooter
	start   sim.Time
	sendEnd sim.Time
	settled bool
	targets []topo.CoreID
	pages   []uint64
}

// Done reports whether all targets have acknowledged.
func (c *Completion) Done() bool { return c.inner == nil || c.inner.Done() }

// Wait blocks p until all targets have acknowledged and settles the TLB
// state. It returns the initiator-observed shootdown duration.
func (c *Completion) Wait(p *sim.Proc) sim.Time {
	if c.inner != nil {
		c.inner.Wait(p)
	}
	if !c.settled {
		c.settled = true
		for _, t := range c.targets {
			c.shooter.invalidate(&c.shooter.tlbs[t], c.pages)
		}
		d := p.Now() - c.start
		c.shooter.Latency.Record(int64(d))
	}
	return p.Now() - c.start
}

// PostShootdown invalidates pages on the initiator core, issues the IPIs
// (paying the serialized send cost), and returns without waiting for
// acknowledgements. Target TLB state is settled when the returned handle
// is waited on. The initiator core must not appear in targets.
func (s *Shooter) PostShootdown(p *sim.Proc, from topo.CoreID, targets []topo.CoreID, pages []uint64) *Completion {
	c := &Completion{shooter: s, start: p.Now(), targets: targets, pages: pages}
	// Local invalidation first (INVLPG/cr3 on the initiating core).
	p.Sleep(s.costs.LocalFlush)
	s.invalidate(&s.tlbs[from], pages)
	if len(targets) > 0 {
		c.inner = s.fabric.Post(p, from, targets, s.HandlerCost(len(pages)))
	}
	c.sendEnd = p.Now()
	s.Shootdowns.Inc()
	s.PagesInvalidated.Add(uint64(len(pages)))
	return c
}

// SendTime returns how long the initiator spent issuing the IPIs.
func (c *Completion) SendTime() sim.Time { return c.sendEnd - c.start }

// Shootdown invalidates pages on the initiator core and on every target
// core, blocking p until all targets acknowledge. It returns the total
// virtual time taken. The initiator core must not appear in targets.
func (s *Shooter) Shootdown(p *sim.Proc, from topo.CoreID, targets []topo.CoreID, pages []uint64) sim.Time {
	return s.PostShootdown(p, from, targets, pages).Wait(p)
}

func (s *Shooter) invalidate(t *TLB, pages []uint64) {
	if len(pages) > s.costs.FullFlushThreshold {
		t.FlushAll()
	} else {
		for _, pg := range pages {
			t.FlushPage(pg)
		}
	}
	if invariant.Enabled {
		t.checkFlushed(pages)
	}
}

// checkFlushed asserts that none of the just-invalidated pages are still
// cached and that the index agrees with the ring (verify); called after
// every shootdown invalidation when built with -tags magecheck.
func (t *TLB) checkFlushed(pages []uint64) {
	for _, pg := range pages {
		invariant.Assert(!t.Contains(pg), "tlbsim: page %d still cached after invalidation", pg)
	}
	invariant.Check(t.verify())
}
