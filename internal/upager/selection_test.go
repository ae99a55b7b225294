package upager

import (
	"math/rand"
	"testing"
	"unsafe"

	"mage/internal/workload"
)

// The ladder's page stream, constants copied from bench/ (gen.go,
// spec.go, page.go): two closed-loop clients drawing scrambled
// Zipf(0.99) page numbers over 65,536 pages against 8,192 frames, each
// with its own generator seeded from (seed, client), 49,152 warm-up pins
// a client before counting starts. page-shm-write pins 50 % for write,
// page-cluster-read 20 %.
const (
	ladderPages   = 65536
	ladderFrames  = 8192
	ladderClients = 2
	ladderTheta   = 0.99
	ladderWarm    = 49152 * ladderClients
	ladderSeed    = 21
)

type ladderOp struct {
	pg    uint32
	write bool
}

// ladderStream is the first n pins the pager sees: the clients' streams
// taken turn about, which is what two goroutines on the harness's one
// CPU come to.
func ladderStream(seed int64, writeFrac float64, n int) []ladderOp {
	type gen struct {
		rng  *rand.Rand
		zipf *workload.Scrambled
	}
	gens := make([]gen, ladderClients)
	for c := range gens {
		gens[c] = gen{rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 1)), workload.NewScrambled(ladderPages, ladderTheta)}
	}
	ops := make([]ladderOp, n)
	for i := range ops {
		g := gens[i%ladderClients]
		pg := g.zipf.Next(g.rng)
		ops[i] = ladderOp{uint32(pg), g.rng.Float64() < writeFrac}
	}
	return ops
}

// arena is what a selection works on with no pager around it: a page
// table, a frame table, and the free frames as a stack.
type arena struct {
	pages []page
	owner []uint64
	free  []int32
}

func newArena(pages, frames int) arena {
	a := arena{pages: make([]page, pages), owner: make([]uint64, frames), free: make([]int32, 0, frames)}
	for f := frames - 1; f >= 0; f-- {
		a.owner[f] = noPage
		a.free = append(a.free, int32(f))
	}
	return a
}

// install makes pg resident in a free frame.
func (a *arena) install(pg uint64) (*page, int32) {
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	pd := &a.pages[pg]
	pd.state, pd.frame = pageResident, f
	a.owner[f] = pg
	return pd, f
}

// evict makes the page in frame f absent and the frame free.
func (a *arena) evict(f int32) (pg uint64, pd *page) {
	pg = a.owner[f]
	pd = &a.pages[pg]
	pd.state = pageAbsent
	a.owner[f] = noPage
	a.free = append(a.free, f)
	return pg, pd
}

// replay is a pager with everything but the page table and the victim
// selection taken away: no lock, no channel, no backing. A pin of an
// absent page is a fault, and reclaim runs, where the evictor would have
// been kicked, until the pool is back at low water — each sweep batching
// up to batch dirty victims, as evictSome does. pick is the selection
// under test.
type replay struct {
	arena
	pick policy

	lowWater, batch int
	stopAtWater     bool // a sweep ends once the pool is back at low water

	pins, faults, refaults, evictions, written uint64
}

// policy is what replay needs of a victim selection; selection's own
// methods, and the CLOCKs the decision was made against.
type policy interface {
	hit(pd *page)
	admit(pd *page, f int32) (refault bool)
	next(pages []page, owner []uint64, limit uint64) (int32, bool)
	looks() uint64
}

type s3fifo struct{ *selection }

func (s s3fifo) hit(pd *page)                 { pd.touch() }
func (s s3fifo) admit(pd *page, f int32) bool { return s.selection.admit(pd, f, touched) }
func (s s3fifo) looks() uint64                { return s.examined }

func newReplay(pick policy) *replay {
	return &replay{
		arena:    newArena(ladderPages, ladderFrames),
		pick:     pick,
		lowWater: 32, // New's defaults at 8,192 frames
		batch:    32,
	}
}

func (r *replay) faultsPerPin() float64  { return float64(r.faults) / float64(r.pins) }
func (r *replay) writtenPerPin() float64 { return float64(r.written) / float64(r.pins) }
func (r *replay) looksPerEviction(from uint64) float64 {
	return float64(r.pick.looks()-from) / float64(r.evictions)
}

func (r *replay) pin(op ladderOp) {
	r.pins++
	pd := &r.pages[op.pg]
	if pd.state == pageResident {
		r.pick.hit(pd)
		pd.dirty = pd.dirty || op.write
		return
	}
	r.faults++
	pd, f := r.install(uint64(op.pg))
	pd.dirty = op.write
	if r.pick.admit(pd, f) {
		r.refaults++
	}
	for len(r.free) < r.lowWater {
		r.sweep()
	}
}

func (r *replay) sweep() {
	limit := r.pick.looks() + 2*ladderFrames
	for dirty := 0; dirty < r.batch && !(r.stopAtWater && len(r.free) >= r.lowWater); {
		f, ok := r.pick.next(r.pages, r.owner, limit)
		if !ok {
			return
		}
		if _, pd := r.evict(f); pd.dirty {
			pd.dirty = false
			dirty++
			r.written++
		}
		r.evictions++
	}
}

// run replays the warm-up uncounted, then the rest.
func (r *replay) run(ops []ladderOp) (looksFrom uint64) {
	for _, op := range ops[:ladderWarm] {
		r.pin(op)
	}
	r.pins, r.faults, r.refaults, r.evictions, r.written = 0, 0, 0, 0, 0
	looksFrom = r.pick.looks()
	for _, op := range ops[ladderWarm:] {
		r.pin(op)
	}
	return looksFrom
}

// clock is the selection the pager had until PR 21 — a hand over the
// frames and a reference count per page that a look spends — and the
// cheaper changes to it that were tried first. land is the count a page
// is installed with, max what a hit saturates it at: 1 and 1 is the
// one-bit CLOCK as it was.
type clock struct {
	hand      int
	land, max uint8
	examined  uint64
}

func (c *clock) hit(pd *page) {
	if pd.freq < c.max {
		pd.freq++
	}
}

func (c *clock) admit(pd *page, f int32) bool { pd.freq = c.land; return false }
func (c *clock) looks() uint64                { return c.examined }

func (c *clock) next(pages []page, owner []uint64, limit uint64) (int32, bool) {
	for c.examined < limit {
		c.examined++
		f := c.hand
		if c.hand++; c.hand == len(owner) {
			c.hand = 0
		}
		if owner[f] == noPage {
			continue
		}
		if pd := &pages[owner[f]]; pd.freq > 0 {
			pd.freq--
			continue
		}
		return int32(f), true
	}
	return -1, false
}

// TestSelectionOnLadderStream is the decision, reproducible: the ladder's
// own page stream through the selection type and through each design it
// was chosen over, and the counts the change was sized by held as
// ceilings. The counts are exact — nothing here has a clock or a
// scheduler in it.
func TestSelectionOnLadderStream(t *testing.T) {
	const pins = 1 << 20
	designs := []struct {
		name        string
		pick        func() policy
		stopAtWater bool
	}{
		{"S3-FIFO (small 10 %, 2-bit counter, ghost)", func() policy { return s3fifo{newSelection(ladderFrames)} }, false},
		{"CLOCK as it was", func() policy { return &clock{land: 1, max: 1} }, false},
		{"CLOCK, sweep stopped at low water", func() policy { return &clock{land: 1, max: 1} }, true},
		{"CLOCK, pages land reference-clear", func() policy { return &clock{land: 0, max: 1} }, false},
		{"2-bit CLOCK", func() policy { return &clock{land: 0, max: 3} }, false},
	}
	for _, writeFrac := range []float64{0.50, 0.20} {
		ops := ladderStream(ladderSeed, writeFrac, ladderWarm+pins)
		var chosen float64
		for i, d := range designs {
			r := newReplay(d.pick())
			r.stopAtWater = d.stopAtWater
			from := r.run(ops)
			t.Logf("write share %.2f  %-44s %.4f faults/pin  %.4f written pages/pin  %.4f refaults/pin  %.2f heads/eviction",
				writeFrac, d.name, r.faultsPerPin(), r.writtenPerPin(), float64(r.refaults)/float64(r.pins), r.looksPerEviction(from))
			if i > 0 {
				if r.faultsPerPin() <= chosen {
					t.Errorf("%s faults %.4f of its pins, the selection in use %.4f: the decision no longer holds", d.name, r.faultsPerPin(), chosen)
				}
				continue
			}
			chosen = r.faultsPerPin()
			if chosen > 0.21 {
				t.Errorf("write share %.2f: %.4f faults/pin; want <= 0.21 (CLOCK: 0.254)", writeFrac, chosen)
			}
			if w := r.writtenPerPin(); writeFrac == 0.50 && w > 0.115 {
				t.Errorf("write share %.2f: %.4f written pages/pin; want <= 0.115 (CLOCK: 0.150)", writeFrac, w)
			}
			if l := r.looksPerEviction(from); l > 4 {
				t.Errorf("write share %.2f: %.2f queue heads examined per eviction; want <= 4", writeFrac, l)
			}
			// Steady state, queues and ghost included, is made of what
			// newSelection made.
			at := 0
			if a := testing.AllocsPerRun(4, func() {
				for _, op := range ops[at : at+65536] {
					r.pin(op)
				}
				at += 65536
			}); a != 0 {
				t.Errorf("%v allocations per 65,536 pins after warm-up; want 0", a)
			}
		}
	}
}

// selTable is a ten-frame arena (small's share 1, ghosts live for 9
// evictions from small) under the selection alone.
type selTable struct {
	arena
	t *testing.T
	s *selection
}

func newSelTable(t *testing.T) *selTable {
	return &selTable{arena: newArena(64, 10), t: t, s: newSelection(10)}
}

// How a page is installed: by the Pin that faulted it, or by FaultAhead
// ahead of its first Pin.
const (
	touched      = false
	faultedAhead = true
)

func (x *selTable) install(untouched bool, pgs ...uint64) (refaults int) {
	for _, pg := range pgs {
		if pd, f := x.arena.install(pg); x.s.admit(pd, f, untouched) {
			refaults++
		}
	}
	if err := x.s.verify(x.pages, x.owner); err != nil {
		x.t.Fatal(err)
	}
	return refaults
}

func (x *selTable) pin(pgs ...uint64) {
	for _, pg := range pgs {
		x.pages[pg].touch()
	}
}

// evict runs one sweep for one victim and frees its frame; noPage when
// the sweep found none.
func (x *selTable) evict() uint64 {
	f, ok := x.s.next(x.pages, x.owner, x.s.examined+2*uint64(len(x.owner)))
	if !ok {
		return noPage
	}
	pg, _ := x.arena.evict(f)
	if err := x.s.verify(x.pages, x.owner); err != nil {
		x.t.Fatal(err)
	}
	return pg
}

func (x *selTable) wantVictim(want uint64) {
	x.t.Helper()
	if got := x.evict(); got != want {
		x.t.Fatalf("victim is page %d; want %d (small %d, main %d queued)", int64(got), int64(want), x.s.small.n, x.s.main.n)
	}
}

func (x *selTable) wantQueued(small, main int) {
	x.t.Helper()
	if x.s.small.n != small || x.s.main.n != main {
		x.t.Fatalf("small holds %d and main %d; want %d and %d", x.s.small.n, x.s.main.n, small, main)
	}
}

// TestSelectionTransitions is the selection's transition table, one row
// a subtest: what each kind of page does when it reaches a queue's head.
func TestSelectionTransitions(t *testing.T) {
	rows := []struct {
		name string
		run  func(x *selTable)
	}{
		{"a page pinned only by its fault leaves from small, stamped", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			x.wantVictim(0)
			if x.pages[0].ghost == 0 {
				x.t.Error("evicted from small without a ghost stamp")
			}
			x.wantQueued(3, 0)
		}},
		{"a page pinned again is promoted, its counter spent", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			x.pin(0, 0)
			x.wantVictim(1)
			x.wantQueued(2, 1)
			if pd := &x.pages[0]; pd.freq != 0 || pd.ghost != 0 || pd.state != pageResident {
				x.t.Errorf("promoted page: freq %d, ghost %d, state %d; want 0, 0, resident", pd.freq, pd.ghost, pd.state)
			}
		}},
		{"main spends one recorded pin per trip to the head", func(x *selTable) {
			x.install(touched, 0, 1)
			x.pin(0, 1)
			x.install(touched, 2, 3)
			x.wantVictim(2) // 0 and 1 promoted on the way
			x.wantQueued(1, 2)
			x.pin(0, 0, 1) // main: 0 with two pins recorded, 1 with one
			x.wantVictim(1)
			if x.pages[0].freq != 0 {
				x.t.Errorf("page 0 went round main twice and still has %d pins recorded", x.pages[0].freq)
			}
			if x.pages[1].ghost != 0 {
				x.t.Error("an eviction from main left a ghost")
			}
		}},
		{"a fault on a live ghost enters main and is a refault", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			x.wantVictim(0)
			if n := x.install(touched, 0); n != 1 {
				x.t.Fatalf("%d refaults; want 1", n)
			}
			x.wantQueued(3, 1)
		}},
		{"a fault on an expired ghost is a fault like any other", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			x.wantVictim(0)
			for pg := uint64(4); pg < 4+9; pg++ { // nine more evictions from small: the window
				x.install(touched, pg)
				x.wantVictim(pg - 3)
			}
			if n := x.install(touched, 0); n != 0 {
				x.t.Fatalf("%d refaults on a stamp %d evictions old; want 0", n, x.s.window)
			}
			x.wantQueued(4, 0)
		}},
		{"the Pin a FaultAhead page was read for is not a second use", func(x *selTable) {
			x.install(faultedAhead, 0)
			x.install(touched, 1, 2, 3)
			x.pin(0)
			x.wantVictim(0)
			x.install(faultedAhead, 4)
			x.pin(4, 4) // its own Pin, then another's
			x.wantVictim(1)
			x.wantVictim(2)
			x.wantVictim(3)
			x.install(touched, 5, 6)
			x.wantVictim(5)
			x.wantQueued(1, 1)
		}},
		{"a pinned or flushing head is requeued unjudged", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			x.pages[0].pins = 1
			x.pages[1].state = pageEvicting // Flush has it on the wire
			x.wantVictim(2)
			x.wantQueued(3, 0)
			x.pages[0].pins, x.pages[1].state = 0, pageResident
			x.wantVictim(3)
			x.wantVictim(0) // behind 3 now
		}},
		{"a main full of pins does not hide what small can give", func(x *selTable) {
			x.install(touched, 0, 1, 2)
			x.pin(0, 1, 2)
			x.install(touched, 3, 4)
			x.wantVictim(3) // 0, 1, 2 promoted
			x.wantQueued(1, 3)
			for pg := 0; pg < 3; pg++ {
				x.pages[pg].pins = 1
			}
			x.wantVictim(4) // small is within its share; main is all pins
		}},
		{"with every frame pinned the sweep ends, having judged nothing", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
			x.pin(0, 1, 2)
			for pg := range x.pages[:10] {
				x.pages[pg].pins = 1
			}
			from := x.s.examined
			x.wantVictim(noPage)
			if looked := x.s.examined - from; looked != 20 || x.s.spared != 0 {
				x.t.Errorf("examined %d heads and spared %d; want 20 (two per frame) and 0", looked, x.s.spared)
			}
			x.wantQueued(10, 0)
		}},
		{"a victim whose writeback failed goes back where it was", func(x *selTable) {
			x.install(touched, 0, 1, 2, 3)
			f, ok := x.s.next(x.pages, x.owner, 20)
			if !ok || x.owner[f] != 0 {
				x.t.Fatalf("victim frame %d, ok %v; want page 0's", f, ok)
			}
			x.s.requeue(&x.pages[0], f)
			x.wantQueued(4, 0)
			if x.pages[0].ghost != 0 {
				x.t.Error("a resident page kept its ghost stamp")
			}
			x.wantVictim(1)
			x.wantVictim(2)
			x.wantVictim(3)
			x.wantVictim(0)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(newSelTable(t)) })
	}
}

func TestPageStaysThreeWords(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n > 24 {
		t.Fatalf("page is %d bytes; the page table is 65,536 of them on the ladder, and 24 is what peak_rss_mb was measured at", n)
	}
}
