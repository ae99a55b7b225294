package tlbsim

import (
	"math/rand"
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
		// Every map entry must point at a ring slot holding its key.
		for page, idx := range tlb.entries {
			if tlb.ring[idx].page != page {
				t.Fatalf("iteration %d: entry %d points at slot %d holding %d",
					i, page, idx, tlb.ring[idx].page)
			}
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
