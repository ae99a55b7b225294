package nic

import (
	"testing"

	"mage/internal/faultinject"
	"mage/internal/sim"
)

func testLinkCosts() LinkCosts {
	return LinkCosts{BytesPerNs: 10, PropDelay: 1000, PostCost: 200}
}

// TestFabricUncontendedTransfer pins the cost model of a quiet link:
// post + propagation + serialization, nothing else.
func TestFabricUncontendedTransfer(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 4, testLinkCosts())
	var d sim.Time
	eng.Spawn("xfer", func(p *sim.Proc) {
		d, _ = f.Link(0, 2).TryTransfer(p, 4000, sim.MaxTime) // 4000 B / 10 B/ns = 400 ns wire
	})
	eng.Run()
	if want := sim.Time(200 + 1000 + 400); d != want {
		t.Fatalf("transfer took %v, want %v", d, want)
	}
	l := f.Link(2, 0)
	if l.Transfers.Value() != 1 || l.Bytes.Value() != 4000 {
		t.Fatalf("link counters = %d transfers / %d bytes, want 1 / 4000",
			l.Transfers.Value(), l.Bytes.Value())
	}
}

// TestFabricCongestionQueuesAtLink launches two same-instant transfers
// on one link: the second must wait out the first's serialization (the
// wire is a FIFO queue), unlike two transfers on disjoint links which
// proceed in parallel.
func TestFabricCongestionQueuesAtLink(t *testing.T) {
	costs := testLinkCosts()
	run := func(sameLink bool) (last sim.Time) {
		eng := sim.NewEngine()
		f := NewFabric(eng, 4, costs)
		for i := 0; i < 2; i++ {
			b := 1
			if !sameLink && i == 1 {
				b = 2
			}
			eng.Spawn("xfer", func(p *sim.Proc) {
				f.Link(0, b).TryTransfer(p, 8000, sim.MaxTime)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		eng.Run()
		return last
	}
	contended, parallel := run(true), run(false)
	// 8000 B at 10 B/ns = 800 ns wire each; the queued transfer finishes
	// one full serialization later than the parallel pair.
	if contended != parallel+800 {
		t.Fatalf("contended finish %v, parallel %v: want exactly one 800ns serialization of queueing",
			contended, parallel)
	}
}

// TestFabricSeveredLinkTimesOut drives transfers through an outage
// window: inside it every attempt burns the caller's timeout; after
// recovery the link carries data again. This is the fault-injection
// verb reuse the rack topology layer leans on — outages sever links
// exactly the way they sever nodes.
func TestFabricSeveredLinkTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, testLinkCosts())
	inj := faultinject.MustNew(faultinject.Plan{
		Seed:    1,
		Outages: []faultinject.Window{{Start: 0, End: 10_000}},
	})
	f.SetLinkInjector(0, 1, inj)
	var results []ReadResult
	eng.Spawn("xfer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			_, res := f.Link(0, 1).TryTransfer(p, 4000, 5000)
			results = append(results, res)
		}
	})
	eng.Run()
	want := []ReadResult{ReadTimeout, ReadTimeout, ReadOK}
	for i, r := range results {
		if r != want[i] {
			t.Fatalf("attempt %d = %v, want %v (all: %v)", i, r, want[i], results)
		}
	}
	if !f.Link(0, 1).Down(5000) || f.Link(0, 1).Down(20_000) {
		t.Fatal("Down() does not track the outage window")
	}
}

// TestFabricDegradedWindowStretchesSerialization pins the degraded-link
// path: inside the window the wire runs at DegradeFactor x line rate.
func TestFabricDegradedWindowStretchesSerialization(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, testLinkCosts())
	inj := faultinject.MustNew(faultinject.Plan{
		Seed:          1,
		Degraded:      []faultinject.Window{{Start: 0, End: 1 << 40}},
		DegradeFactor: 0.25,
	})
	f.SetLinkInjector(0, 1, inj)
	var d sim.Time
	eng.Spawn("xfer", func(p *sim.Proc) {
		d, _ = f.Link(0, 1).TryTransfer(p, 4000, sim.MaxTime)
	})
	eng.Run()
	// 400 ns wire time at full rate -> 1600 ns at 0.25x.
	if want := sim.Time(200 + 1000 + 1600); d != want {
		t.Fatalf("degraded transfer took %v, want %v", d, want)
	}
}

// TestFabricTopologyGuards pins the loud-failure contract for
// mis-addressed links.
func TestFabricTopologyGuards(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, testLinkCosts())
	for _, pair := range [][2]int{{0, 0}, {-1, 1}, {0, 3}} {
		pair := pair
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			f.Link(pair[0], pair[1])
		}()
	}
	if f.n != 3 {
		t.Fatalf("the fabric joins %d nodes, want 3", f.n)
	}
}

// TestFabricDeterministicUnderContention runs a many-node crossing
// pattern twice and requires identical per-link byte counts and final
// clocks — the fabric must be as replayable as the rest of the DES.
func TestFabricDeterministicUnderContention(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine()
		f := NewFabric(eng, 8, testLinkCosts())
		for i := 0; i < 8; i++ {
			src := i
			eng.Spawn("spill", func(p *sim.Proc) {
				for k := 0; k < 5; k++ {
					dst := (src + k + 1) % 8
					f.Link(src, dst).TryTransfer(p, int64(4096*(1+k%3)), sim.MaxTime)
					p.Sleep(sim.Time(100 * (src + 1)))
				}
			})
		}
		end := eng.Run()
		var total uint64
		for a := 0; a < 8; a++ {
			for b := a + 1; b < 8; b++ {
				total += f.Link(a, b).Bytes.Value()
			}
		}
		return end, total
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("fabric not deterministic: run1=(%v,%d) run2=(%v,%d)", t1, b1, t2, b2)
	}
}
