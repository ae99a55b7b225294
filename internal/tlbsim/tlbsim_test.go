package tlbsim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"mage/internal/apic"
	"mage/internal/sim"
	"mage/internal/topo"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Touch(10) {
		t.Error("first touch should miss")
	}
	if !tlb.Touch(10) {
		t.Error("second touch should hit")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Touch(1)
	tlb.Touch(2)
	tlb.Touch(3) // evicts 1
	if tlb.Contains(1) {
		t.Error("page 1 should have been evicted")
	}
	if !tlb.Contains(2) || !tlb.Contains(3) {
		t.Error("pages 2 and 3 should be present")
	}
	if tlb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tlb.Len())
	}
}

func TestTLBPageZeroIsValid(t *testing.T) {
	tlb := NewTLB(3)
	tlb.Touch(0)
	tlb.Touch(5)
	tlb.Touch(6)
	if !tlb.Contains(0) {
		t.Error("page 0 must remain after filling other slots")
	}
	tlb.Touch(7) // evicts 0 (oldest)
	if tlb.Contains(0) {
		t.Error("page 0 should be evicted by FIFO now")
	}
}

func TestTLBFlushPage(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Touch(1)
	tlb.Touch(2)
	tlb.FlushPage(1)
	if tlb.Contains(1) {
		t.Error("page 1 flushed but still present")
	}
	if !tlb.Contains(2) {
		t.Error("page 2 disturbed by flush of page 1")
	}
	tlb.FlushPage(99) // absent: no-op
}

func TestTLBFlushAll(t *testing.T) {
	tlb := NewTLB(4)
	for i := uint64(0); i < 4; i++ {
		tlb.Touch(i)
	}
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Errorf("Len after FlushAll = %d", tlb.Len())
	}
	if !tlb.Touch(7) == false {
		t.Error("touch after flush should miss")
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		tlb := NewTLB(capacity)
		for _, p := range pages {
			tlb.Touch(uint64(p))
		}
		return tlb.Len() <= capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBRingMapConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tlb := NewTLB(8)
	for i := 0; i < 10000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			tlb.Touch(uint64(rng.Intn(32)))
		case 2:
			tlb.FlushPage(uint64(rng.Intn(32)))
		}
		// Every index cell must name a ring slot holding a page and be
		// the cell that page's probe reaches; live must match the ring.
		if err := tlb.verify(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func newShooter(sockets, cps int) (*sim.Engine, *Shooter, *topo.Machine) {
	eng := sim.NewEngine()
	m := topo.NewMachine(sockets, cps)
	fab := apic.NewFabric(eng, m, apic.DefaultCosts())
	return eng, NewShooter(fab, m, DefaultCosts(), 64), m
}

func TestHandlerCostRegimes(t *testing.T) {
	_, s, _ := newShooter(1, 2)
	c := DefaultCosts()
	if got := s.HandlerCost(1); got != c.Invlpg {
		t.Errorf("HandlerCost(1) = %v", got)
	}
	if got := s.HandlerCost(c.FullFlushThreshold); got != sim.Time(c.FullFlushThreshold)*c.Invlpg {
		t.Errorf("HandlerCost(threshold) = %v", got)
	}
	if got := s.HandlerCost(c.FullFlushThreshold + 1); got != c.FullFlush {
		t.Errorf("HandlerCost(threshold+1) = %v, want full flush", got)
	}
}

func TestShootdownInvalidatesAllTargets(t *testing.T) {
	eng, s, _ := newShooter(1, 4)
	pages := []uint64{10, 11, 12}
	eng.Spawn("setup", func(p *sim.Proc) {
		for c := topo.CoreID(0); c < 4; c++ {
			for _, pg := range pages {
				s.TLBOf(c).Touch(pg)
			}
			s.TLBOf(c).Touch(99) // unrelated entry survives
		}
		s.Shootdown(p, 0, []topo.CoreID{1, 2, 3}, pages)
		for c := topo.CoreID(0); c < 4; c++ {
			for _, pg := range pages {
				if s.TLBOf(c).Contains(pg) {
					t.Errorf("core %d still caches page %d after shootdown", c, pg)
				}
			}
			if !s.TLBOf(c).Contains(99) {
				t.Errorf("core %d lost unrelated entry 99", c)
			}
		}
	})
	eng.Run()
	if s.Shootdowns.Value() != 1 || s.PagesInvalidated.Value() != 3 {
		t.Errorf("counters: %d shootdowns, %d pages",
			s.Shootdowns.Value(), s.PagesInvalidated.Value())
	}
}

func TestLargeBatchUsesFullFlush(t *testing.T) {
	eng, s, _ := newShooter(1, 2)
	var pages []uint64
	for i := uint64(0); i < 64; i++ {
		pages = append(pages, i)
	}
	eng.Spawn("setup", func(p *sim.Proc) {
		s.TLBOf(1).Touch(1000) // unrelated entry; full flush removes it too
		s.Shootdown(p, 0, []topo.CoreID{1}, pages)
		if s.TLBOf(1).Len() != 0 {
			t.Errorf("full flush left %d entries", s.TLBOf(1).Len())
		}
	})
	eng.Run()
}

func TestBatchingAmortizesIPIs(t *testing.T) {
	// One shootdown covering 256 pages must cost far less than 256
	// single-page shootdowns — the amortization MAGE's batched TLB
	// invalidation relies on (§4.2.1).
	runOne := func(batch int, count int) sim.Time {
		eng, s, _ := newShooter(2, 4)
		var total sim.Time
		eng.Spawn("e", func(p *sim.Proc) {
			targets := []topo.CoreID{1, 2, 3, 4, 5, 6, 7}
			pg := uint64(0)
			for done := 0; done < count; done += batch {
				var pages []uint64
				for i := 0; i < batch; i++ {
					pages = append(pages, pg)
					pg++
				}
				s.Shootdown(p, 0, targets, pages)
			}
			total = p.Now()
		})
		eng.Run()
		return total
	}
	batched := runOne(256, 256)
	single := runOne(1, 256)
	if batched*20 > single {
		t.Errorf("batched=%v single=%v: batching should win by >20x", batched, single)
	}
}

func TestShootdownNoTargets(t *testing.T) {
	eng, s, _ := newShooter(1, 1)
	eng.Spawn("e", func(p *sim.Proc) {
		d := s.Shootdown(p, 0, nil, []uint64{1})
		if d != DefaultCosts().LocalFlush {
			t.Errorf("local-only shootdown took %v", d)
		}
	})
	eng.Run()
}

// TestIdleCoreTLBHoldsNothing: over the paper's 2 × 28 machine a TLB's
// ring and index are built on the core's first Touch, so a shooter holds
// neither for a core no thread runs on, a shootdown's invalidation of
// such a core allocates nothing, by page or by full flush, and a Touch
// builds only its own core's TLB.
func TestIdleCoreTLBHoldsNothing(t *testing.T) {
	m := topo.NewMachine(2, 28)
	s := NewShooter(apic.NewFabric(sim.NewEngine(), m, apic.DefaultCosts()), m, DefaultCosts(), 1536)
	built := func() (n int) {
		for c := range m.NumCores() {
			if tlb := s.TLBOf(topo.CoreID(c)); tlb.ring != nil || tlb.index != nil {
				n++
			}
		}
		return n
	}
	if n := built(); n != 0 {
		t.Fatalf("NewShooter built %d of %d TLBs; want 0", n, m.NumCores())
	}
	few := []uint64{1, 2, 3}
	many := make([]uint64, DefaultCosts().FullFlushThreshold+1)
	for i := range many {
		many[i] = uint64(i)
	}
	for _, pages := range [][]uint64{few, many} {
		if a := testing.AllocsPerRun(100, func() {
			for c := range m.NumCores() {
				s.invalidate(s.TLBOf(topo.CoreID(c)), pages)
				s.TLBOf(topo.CoreID(c)).Contains(pages[0])
			}
		}); a != 0 {
			t.Errorf("invalidating %d pages on untouched cores allocates %v times; want 0", len(pages), a)
		}
	}
	if n := built(); n != 0 {
		t.Fatalf("invalidation built %d TLBs; want 0", n)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.TLBOf(5).Touch(7)
	runtime.ReadMemStats(&after)
	if n := built(); n != 1 || s.TLBOf(5).ring == nil {
		t.Fatalf("one Touch on core 5 built %d TLBs (core 5's: %v); want core 5's alone", n, s.TLBOf(5).ring != nil)
	}
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("the first Touch on a core allocated %d B", b)
	if b > 48<<10 {
		t.Errorf("one Touch allocated %d B; want at most %d", b, 48<<10)
	}
	if !s.TLBOf(5).Contains(7) || s.TLBOf(5).Misses != 1 {
		t.Error("the first Touch did not cache its page")
	}
}
