package nic

import (
	"testing"

	"mage/internal/faultinject"
	"mage/internal/sim"
)

// TestTryReadNoInjectorMatchesRead: the degenerate path must be exactly
// Read — same latency, same counters.
func TestTryReadNoInjectorMatchesRead(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	var d sim.Time
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		d, res = n.TryRead(p, PageSize, sim.Millisecond)
	})
	eng.Run()
	if res != ReadOK || d != 3900 {
		t.Errorf("TryRead without injector = (%v, %v), want (3900, ok)", d, res)
	}
	if n.Reads.Value() != 1 || n.BytesRead.Value() != PageSize {
		t.Errorf("counters: reads=%d bytes=%d", n.Reads.Value(), n.BytesRead.Value())
	}
}

// TestTryReadOutageTimesOut: during an outage window a read burns
// exactly the caller's timeout, moves no bytes, and counts no Reads.
func TestTryReadOutageTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	n.SetFaultInjector(faultinject.MustNew(faultinject.Plan{
		Outages: []faultinject.Window{{Start: 0, End: 100 * sim.Microsecond}},
	}))
	const timeout = 50 * sim.Microsecond
	var d sim.Time
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		d, res = n.TryRead(p, PageSize, timeout)
	})
	eng.Run()
	if res != ReadTimeout || d != timeout {
		t.Errorf("outage read = (%v, %v), want (%v, timeout)", d, res, timeout)
	}
	if n.Reads.Value() != 0 || n.BytesRead.Value() != 0 {
		t.Errorf("timed-out read moved data: reads=%d bytes=%d", n.Reads.Value(), n.BytesRead.Value())
	}
	if n.inj.ReadTimeouts.Value() != 1 {
		t.Errorf("injector timeout tally = %d, want 1", n.inj.ReadTimeouts.Value())
	}
}

// TestTryReadNackCostsOneRoundTrip: a NACK pays host post + base latency
// but no serialization and no data counters.
func TestTryReadNackCostsOneRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	n.SetFaultInjector(faultinject.MustNew(faultinject.Plan{Seed: 1, ReadFailProb: 1}))
	var d sim.Time
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		d, res = n.TryRead(p, PageSize, sim.Millisecond)
	})
	eng.Run()
	want := n.costs.StackCost + n.costs.DoorbellCost + n.costs.BaseLatency
	if res != ReadNack || d != want {
		t.Errorf("nack read = (%v, %v), want (%v, nack)", d, res, want)
	}
	if n.Reads.Value() != 0 {
		t.Errorf("nacked read counted: %d", n.Reads.Value())
	}
}

// TestTryReadDegradedLinkSlower: a degraded window stretches
// serialization by 1/DegradeFactor.
func TestTryReadDegradedLinkSlower(t *testing.T) {
	run := func(factor float64, windows []faultinject.Window) sim.Time {
		eng := sim.NewEngine()
		n := NewDefault(eng, StackLibOS)
		n.SetFaultInjector(faultinject.MustNew(faultinject.Plan{
			Degraded:      windows,
			DegradeFactor: factor,
		}))
		var d sim.Time
		eng.Spawn("reader", func(p *sim.Proc) {
			d, _ = n.TryRead(p, PageSize, sim.Millisecond)
		})
		eng.Run()
		return d
	}
	healthy := run(1, nil)
	degraded := run(0.25, []faultinject.Window{{Start: 0, End: sim.Second}})
	if healthy != 3900 {
		t.Errorf("healthy read = %v, want 3900", healthy)
	}
	slow := float64(PageSize) / (24.0 * 0.25)
	fast := float64(PageSize) / 24.0
	wantExtra := sim.Time(slow) - sim.Time(fast)
	if degraded-healthy != wantExtra {
		t.Errorf("degraded read = %v (healthy %v), want extra %v", degraded, healthy, wantExtra)
	}
}

// TestTryPostWriteFailureModes: dropped writes report Failed/TimedOut
// and never count toward Writes/BytesWritten.
func TestTryPostWriteFailureModes(t *testing.T) {
	post := func(plan faultinject.Plan) (*NIC, *Completion, sim.Time) {
		eng := sim.NewEngine()
		n := NewDefault(eng, StackLibOS)
		n.SetFaultInjector(faultinject.MustNew(plan))
		var c *Completion
		var waited sim.Time
		eng.Spawn("writer", func(p *sim.Proc) {
			start := p.Now()
			c = n.TryPostWrite(p, PageSize, 50*sim.Microsecond)
			c.Wait(p)
			waited = p.Now() - start
		})
		eng.Run()
		return n, c, waited
	}

	n, c, _ := post(faultinject.Plan{Seed: 2, WriteFailProb: 1})
	if !c.Failed() || c.TimedOut() {
		t.Errorf("nack write: failed=%v timedOut=%v", c.Failed(), c.TimedOut())
	}
	if n.Writes.Value() != 0 || n.BytesWritten.Value() != 0 {
		t.Errorf("nacked write counted: writes=%d bytes=%d", n.Writes.Value(), n.BytesWritten.Value())
	}

	n, c, waited := post(faultinject.Plan{
		Outages: []faultinject.Window{{Start: 0, End: sim.Second}},
	})
	if !c.Failed() || !c.TimedOut() {
		t.Errorf("outage write: failed=%v timedOut=%v", c.Failed(), c.TimedOut())
	}
	if waited < 50*sim.Microsecond {
		t.Errorf("timed-out write waited only %v", waited)
	}
	if n.Writes.Value() != 0 {
		t.Errorf("timed-out write counted: %d", n.Writes.Value())
	}

	n, c, _ = post(faultinject.Plan{Seed: 3}) // enabled-but-benign plan
	if c.Failed() {
		t.Error("benign write failed")
	}
	if n.Writes.Value() != 1 || n.BytesWritten.Value() != PageSize {
		t.Errorf("benign write counters: writes=%d bytes=%d", n.Writes.Value(), n.BytesWritten.Value())
	}
}

// TestFaultedNICDeterministic: same plan, same event sequence → same
// outcome stream and virtual-time trace.
func TestFaultedNICDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		eng := sim.NewEngine()
		n := NewDefault(eng, StackLibOS)
		n.SetFaultInjector(faultinject.MustNew(faultinject.Plan{
			Seed:         faultinject.DeriveSeed(7, "nictest"),
			ReadFailProb: 0.3,
			SpikeProb:    0.3,
			SpikeMin:     100,
			SpikeMax:     2000,
		}))
		var end sim.Time
		eng.Spawn("reader", func(p *sim.Proc) {
			for i := 0; i < 500; i++ {
				n.TryRead(p, PageSize, 10*sim.Microsecond)
			}
			end = p.Now()
		})
		eng.Run()
		return end, n.Reads.Value(), n.inj.ReadNacks.Value()
	}
	e1, r1, k1 := run()
	e2, r2, k2 := run()
	if e1 != e2 || r1 != r2 || k1 != k2 {
		t.Errorf("faulted NIC nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, r1, k1, e2, r2, k2)
	}
	if k1 == 0 {
		t.Error("no nacks fired at p=0.3 over 500 ops")
	}
}

// TestPostWriteIsNoProcess: a posted WRITE in flight is a chain of
// continuations, not a process, on every path: plain, and under an
// injector that passes, NACKs or times it out. Neither the post nor the
// completion changes Engine.Live.
func TestPostWriteIsNoProcess(t *testing.T) {
	rows := []struct {
		name     string
		plan     *faultinject.Plan
		failed   bool
		timedOut bool
	}{
		{"PostWrite", nil, false, false},
		{"TryPostWriteWith ok", &faultinject.Plan{Seed: 2}, false, false},
		{"TryPostWriteWith nack", &faultinject.Plan{Seed: 2, WriteFailProb: 1}, true, false},
		{"TryPostWriteWith timeout", &faultinject.Plan{Outages: []faultinject.Window{{Start: 0, End: sim.Second}}}, true, true},
	}
	for _, r := range rows {
		eng := sim.NewEngine()
		n := NewDefault(eng, StackLibOS)
		eng.Spawn("writer", func(p *sim.Proc) {
			live := eng.Live()
			var cs []*Completion
			for i := 0; i < 4; i++ {
				if r.plan == nil {
					cs = append(cs, n.PostWrite(p, PageSize))
				} else {
					cs = append(cs, n.TryPostWriteWith(p, PageSize, 50*sim.Microsecond, faultinject.MustNew(*r.plan)))
				}
				if eng.Live() != live {
					t.Errorf("%s: post %d: Live %d -> %d", r.name, i, live, eng.Live())
				}
			}
			for _, c := range cs {
				c.Wait(p)
				if c.Failed() != r.failed || c.TimedOut() != r.timedOut {
					t.Errorf("%s: failed=%v timedOut=%v", r.name, c.Failed(), c.TimedOut())
				}
			}
			if eng.Live() != live {
				t.Errorf("%s: after completion: Live %d -> %d", r.name, live, eng.Live())
			}
		})
		eng.Run()
		if want := uint64(4); !r.failed && n.Writes.Value() != want {
			t.Errorf("%s: %d writes, want %d", r.name, n.Writes.Value(), want)
		}
	}
}
