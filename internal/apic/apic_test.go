package apic

import (
	"testing"

	"mage/internal/sim"
	"mage/internal/topo"
)

func testFabric(sockets, cps int) (*sim.Engine, *Fabric, *topo.Machine) {
	eng := sim.NewEngine()
	m := topo.NewMachine(sockets, cps)
	return eng, NewFabric(eng, m, DefaultCosts()), m
}

// roundTrip posts an IPI from core `from` to every target and waits for
// the last ack, and returns how long p spent on both.
func roundTrip(p *sim.Proc, f *Fabric, from topo.CoreID, targets []topo.CoreID, handlerCost sim.Time) sim.Time {
	start := p.Now()
	f.Post(p, from, targets, handlerCost).Wait(p)
	return p.Now() - start
}

func TestBroadcastNoTargets(t *testing.T) {
	eng, f, _ := testFabric(1, 4)
	eng.Spawn("init", func(p *sim.Proc) {
		if d := roundTrip(p, f, 0, nil, 500); d != 0 {
			t.Errorf("empty broadcast took %v", d)
		}
	})
	eng.Run()
	if f.IPIsSent.Value() != 0 {
		t.Errorf("IPIsSent = %d", f.IPIsSent.Value())
	}
}

func TestBroadcastSingleTargetLatency(t *testing.T) {
	eng, f, _ := testFabric(1, 4)
	c := DefaultCosts()
	handler := sim.Time(400)
	var took sim.Time
	eng.Spawn("init", func(p *sim.Proc) {
		took = roundTrip(p, f, 0, []topo.CoreID{1}, handler)
	})
	eng.Run()
	want := c.SendCost + c.DeliverySameSocket + handler + c.AckLatency
	if took != want {
		t.Errorf("broadcast latency = %v, want %v", took, want)
	}
	if f.IPIsSent.Value() != 1 {
		t.Errorf("IPIsSent = %d, want 1", f.IPIsSent.Value())
	}
}

func TestCrossSocketSlower(t *testing.T) {
	eng, f, _ := testFabric(2, 2)
	var same, cross sim.Time
	eng.Spawn("init", func(p *sim.Proc) {
		same = roundTrip(p, f, 0, []topo.CoreID{1}, 100)
		cross = roundTrip(p, f, 0, []topo.CoreID{2}, 100)
	})
	eng.Run()
	if cross <= same {
		t.Errorf("cross-socket (%v) should exceed same-socket (%v)", cross, same)
	}
	wantDiff := DefaultCosts().DeliveryCrossSocket - DefaultCosts().DeliverySameSocket
	if cross-same != wantDiff {
		t.Errorf("difference = %v, want %v", cross-same, wantDiff)
	}
}

func TestSerializedSends(t *testing.T) {
	eng, f, _ := testFabric(1, 8)
	c := DefaultCosts()
	targets := []topo.CoreID{1, 2, 3, 4, 5, 6, 7}
	var took sim.Time
	eng.Spawn("init", func(p *sim.Proc) {
		took = roundTrip(p, f, 0, targets, 100)
	})
	eng.Run()
	// The last IPI leaves after 7 send slots; its round trip bounds the
	// broadcast.
	minWant := 7*c.SendCost + c.DeliverySameSocket + 100 + c.AckLatency
	if took < minWant {
		t.Errorf("broadcast = %v, want >= %v (serialized sends)", took, minWant)
	}
}

func TestVMExitSurcharge(t *testing.T) {
	eng := sim.NewEngine()
	m := topo.NewMachine(1, 2)
	costs := DefaultCosts()
	costs.VMExit = 550
	f := NewFabric(eng, m, costs)
	var took sim.Time
	eng.Spawn("init", func(p *sim.Proc) {
		took = roundTrip(p, f, 0, []topo.CoreID{1}, 100)
	})
	eng.Run()
	bare := costs.SendCost + costs.DeliverySameSocket + 100 + costs.AckLatency
	if took != bare+550 {
		t.Errorf("virtualized broadcast = %v, want %v", took, bare+550)
	}
}

func TestIPIStormQueuesAtTarget(t *testing.T) {
	// Many initiators targeting one core must queue: mean delivery latency
	// grows well beyond the uncontended value.
	eng, f, _ := testFabric(1, 16)
	handler := sim.Time(1000)
	for i := 1; i < 16; i++ {
		i := i
		eng.Spawn("sender", func(p *sim.Proc) {
			roundTrip(p, f, topo.CoreID(i), []topo.CoreID{0}, handler)
		})
	}
	eng.Run()
	uncontended := int64(DefaultCosts().DeliverySameSocket + handler)
	if f.DeliveryLatency.Max() < 5*uncontended {
		t.Errorf("max delivery latency %d under storm, want >= %d (queueing)",
			f.DeliveryLatency.Max(), 5*uncontended)
	}
	if f.DeliveryLatency.Count() != 15 {
		t.Errorf("recorded %d IPIs, want 15", f.DeliveryLatency.Count())
	}
}

func TestHandlerStealsTargetTime(t *testing.T) {
	eng, f, m := testFabric(1, 2)
	eng.Spawn("init", func(p *sim.Proc) {
		roundTrip(p, f, 0, []topo.CoreID{1}, 700)
	})
	eng.Run()
	if got := m.Core(1).DrainStolen(); got != 700 {
		t.Errorf("stolen = %d, want 700", got)
	}
	if m.Core(1).IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", m.Core(1).IRQs)
	}
}

func TestConcurrentBroadcastsComplete(t *testing.T) {
	eng, f, _ := testFabric(2, 4)
	all := []topo.CoreID{0, 1, 2, 3, 4, 5, 6, 7}
	doneCount := 0
	for i := 0; i < 8; i++ {
		i := i
		eng.Spawn("sender", func(p *sim.Proc) {
			var tgts []topo.CoreID
			for _, c := range all {
				if c != topo.CoreID(i) {
					tgts = append(tgts, c)
				}
			}
			roundTrip(p, f, topo.CoreID(i), tgts, 300)
			doneCount++
		})
	}
	eng.Run()
	if doneCount != 8 {
		t.Errorf("only %d/8 broadcasts completed", doneCount)
	}
	if f.IPIsSent.Value() != 8*7 {
		t.Errorf("IPIsSent = %d, want 56", f.IPIsSent.Value())
	}
}

// TestPostIsNoProcess: an IPI in flight is a chain of continuations, not
// a process. Post leaves Engine.Live unchanged, and a lone sender's 23
// send slots cost it no resume: each IPI's steps run on its stack while
// it parks in its next slot, and so does the last ack that wakes it.
func TestPostIsNoProcess(t *testing.T) {
	eng, f, _ := testFabric(2, 12)
	var targets []topo.CoreID
	for c := topo.CoreID(1); c < 24; c++ {
		targets = append(targets, c)
	}
	eng.Spawn("init", func(p *sim.Proc) {
		live, resumes := eng.Live(), eng.Resumes()
		c := f.Post(p, 0, targets, 500)
		if eng.Live() != live {
			t.Errorf("Post: Live %d -> %d", live, eng.Live())
		}
		if got := eng.Resumes() - resumes; got != 0 {
			t.Errorf("23 send slots cost the sender %d resumes, want 0", got)
		}
		c.Wait(p)
		if eng.Live() != live {
			t.Errorf("after the acks: Live %d -> %d", live, eng.Live())
		}
		if got := eng.Resumes() - resumes; got != 0 {
			t.Errorf("a 23-target broadcast cost the sender %d resumes, want 0", got)
		}
	})
	eng.Run()
	if f.IPIsSent.Value() != 23 || f.DeliveryLatency.Count() != 23 {
		t.Errorf("IPIs sent %d, latencies recorded %d; want 23 and 23", f.IPIsSent.Value(), f.DeliveryLatency.Count())
	}
}
