// Package tlbsim models per-core translation lookaside buffers and the
// shootdown protocol used to keep them coherent during page eviction
// (EP₂ in the paper's workflow, §3.3.1).
//
// Each core's TLB is a bounded set of virtual page numbers with FIFO
// replacement. Invalidation on remote cores requires an IPI broadcast via
// an apic.Fabric; the handler cost depends on how many pages are being
// invalidated — per-page INVLPG up to a threshold, then one full flush
// (writing cr3), matching how Linux chooses between the two.
package tlbsim

import (
	"mage/internal/apic"
	"mage/internal/invariant"
	"mage/internal/sim"
	"mage/internal/stats"
	"mage/internal/topo"
)

// TLB is one core's translation cache: a bounded set of virtual page
// numbers with FIFO replacement.
//
// FlushAll is O(1): every ring slot carries the generation it was filled
// in, and a flush bumps the current one. An entry is cached only while
// its slot's stamp is current; the map may keep stale entries, at most
// one per slot, until their slot is reused. Only when the generation
// counter wraps does a flush clear the map and the ring.
type TLB struct {
	capacity int
	entries  map[uint64]int // page -> ring index; ring[i].page == page
	ring     []slot
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

// NewTLB returns a TLB holding up to capacity entries.
func NewTLB(capacity int) *TLB {
	if capacity < 1 {
		capacity = 1
	}
	t := &TLB{
		capacity: capacity,
		entries:  make(map[uint64]int, capacity),
		ring:     make([]slot, capacity),
	}
	t.reset()
	return t
}

// reset empties the map and the ring.
func (t *TLB) reset() {
	clear(t.entries)
	for i := range t.ring {
		t.ring[i] = slot{page: emptySlot}
	}
	t.live = 0
}

// cached reports whether page is in the TLB: its map entry names a slot
// stamped with the current generation.
func (t *TLB) cached(page uint64) bool {
	i, ok := t.entries[page]
	return ok && t.ring[i].gen == t.gen
}

// Touch looks up page, inserting it on a miss (evicting the oldest entry
// if full), and reports whether it hit. The page number emptySlot (all
// ones) is reserved and must not be used.
func (t *TLB) Touch(page uint64) bool {
	if t.cached(page) {
		t.Hits++
		return true
	}
	t.Misses++
	if old := t.ring[t.pos]; old.page != emptySlot {
		// Only evict if the slot still owns the mapping (FlushPage may
		// have removed it already, or the page moved to a newer slot
		// after a FlushAll).
		if idx, ok := t.entries[old.page]; ok && idx == t.pos {
			delete(t.entries, old.page)
			if old.gen == t.gen {
				t.live--
			}
		}
	}
	t.ring[t.pos] = slot{page: page, gen: t.gen}
	t.entries[page] = t.pos
	t.live++
	t.pos = (t.pos + 1) % t.capacity
	return false
}

// Contains reports whether page is cached without updating statistics.
func (t *TLB) Contains(page uint64) bool { return t.cached(page) }

// Len returns the number of cached entries.
func (t *TLB) Len() int { return t.live }

// FlushPage removes one page if present.
func (t *TLB) FlushPage(page uint64) {
	if i, ok := t.entries[page]; ok {
		if t.ring[i].gen == t.gen {
			t.live--
		}
		delete(t.entries, page)
		t.ring[i].page = emptySlot
	}
}

// FlushAll empties the TLB (the cr3-write path) by starting a new
// generation. When the counter wraps, a stamp from 2^32 flushes ago would
// read as current again, so that flush empties the map and ring instead.
func (t *TLB) FlushAll() {
	t.live = 0
	if t.gen++; t.gen == 0 {
		t.reset()
	}
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
	tlbs   []*TLB

	// Shootdowns counts broadcast operations (not individual IPIs).
	Shootdowns stats.Counter
	// PagesInvalidated counts pages covered by all shootdowns.
	PagesInvalidated stats.Counter
	// Latency records the initiator-observed time per shootdown — the
	// "TLB shootdown latency" series of Fig 7.
	Latency *stats.Histogram
}

// NewShooter builds a shooter over fabric with one TLB per core of
// tlbCapacity entries.
func NewShooter(fabric *apic.Fabric, machine *topo.Machine, costs Costs, tlbCapacity int) *Shooter {
	s := &Shooter{
		fabric:  fabric,
		costs:   costs,
		Latency: stats.NewHistogram(),
	}
	for i := 0; i < machine.NumCores(); i++ {
		s.tlbs = append(s.tlbs, NewTLB(tlbCapacity))
	}
	return s
}

// TLBOf returns the TLB of a core.
func (s *Shooter) TLBOf(c topo.CoreID) *TLB { return s.tlbs[c] }

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
			c.shooter.invalidate(c.shooter.tlbs[t], c.pages)
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
	s.invalidate(s.tlbs[from], pages)
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
// cached and that the live count agrees with the current-generation slots
// the map points at; called after every shootdown invalidation when built
// with -tags magecheck.
func (t *TLB) checkFlushed(pages []uint64) {
	for _, pg := range pages {
		invariant.Assert(!t.Contains(pg), "tlbsim: page %d still cached after invalidation", pg)
	}
	invariant.Assert(len(t.entries) <= t.capacity,
		"tlbsim: %d entries exceed capacity %d", len(t.entries), t.capacity)
	live := 0
	for i, sl := range t.ring {
		if sl.page == emptySlot {
			continue
		}
		if idx, ok := t.entries[sl.page]; ok && idx == i && sl.gen == t.gen {
			live++
		}
	}
	invariant.Assert(live == t.live,
		"tlbsim: ring holds %d live entries but the count is %d", live, t.live)
}
