package core

import (
	"testing"

	"mage/internal/sim"
)

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Accs: []Access{{Page: 1}, {Page: 2}}}
	a, ok := s.Next()
	if !ok || a.Page != 1 {
		t.Fatalf("first = %v,%v", a, ok)
	}
	a, ok = s.Next()
	if !ok || a.Page != 2 {
		t.Fatalf("second = %v,%v", a, ok)
	}
	if _, ok = s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

func TestRunResultAggregates(t *testing.T) {
	r := RunResult{
		Threads: []ThreadResult{
			{Accesses: 10, Faults: 2, FinishedAt: 100},
			{Accesses: 20, Faults: 3, FinishedAt: 200},
		},
		Makespan: sim.Second / 2,
	}
	if r.TotalAccesses() != 30 || r.TotalFaults() != 5 {
		t.Errorf("totals: %d accesses, %d faults", r.TotalAccesses(), r.TotalFaults())
	}
	if got := r.OpsPerSec(); got != 60 {
		t.Errorf("OpsPerSec = %v, want 60", got)
	}
	if got := r.JobsPerHour(); got != 7200 {
		t.Errorf("JobsPerHour = %v, want 7200", got)
	}
	empty := RunResult{}
	if empty.OpsPerSec() != 0 || empty.JobsPerHour() != 0 {
		t.Error("zero makespan should yield zero rates")
	}
}

func TestAccessWaitHookRuns(t *testing.T) {
	cfg := MageLib(1, 256, 512)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 2
	node, _ := mustNode(t, cfg)
	var wokeAt sim.Time
	stream := &SliceStream{Accs: []Access{
		{Page: 1, Compute: 10},
		{Skip: true, Wait: func(p *sim.Proc) {
			p.Sleep(5 * sim.Millisecond)
			wokeAt = p.Now()
		}},
		{Page: 2, Compute: 10},
	}}
	res := node.Run([]AccessStream{stream})
	if wokeAt < 5*sim.Millisecond {
		t.Errorf("wait hook finished at %v", wokeAt)
	}
	if res.Makespan < 5*sim.Millisecond {
		t.Errorf("makespan %v ignores the wait", res.Makespan)
	}
	if res.TotalAccesses() != 2 {
		t.Errorf("accesses = %d, want 2 (Skip element excluded)", res.TotalAccesses())
	}
}

func TestTLBHitDoesNotRefreshAccessedBit(t *testing.T) {
	cfg := DiLOS(1, 64, 256)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 2
	node, tn := mustNode(t, cfg)
	node.Eng.Spawn("t", func(p *sim.Proc) {
		th := tn.NewThread(p, 0)
		th.Access(3, false, 10) // fault-in: A set by CompleteFault
		// Clear via a second-chance pass.
		if r := tn.AS.TryUnmap(p, 3, true); r.OK {
			t.Fatal("first unmap should be refused (accessed)")
		}
		// TLB-hit reads must NOT re-set the bit.
		th.Access(3, false, 10)
		th.Access(3, false, 10)
		if tn.AS.PTEOf(3).Accessed {
			t.Error("TLB-hit read refreshed the accessed bit")
		}
		// A write re-walks and sets A and D.
		th.Access(3, true, 10)
		pte := tn.AS.PTEOf(3)
		if !pte.Accessed || !pte.Dirty {
			t.Errorf("write did not set A/D: %+v", pte)
		}
		th.Flush()
		node.Stop()
	})
	node.Eng.Run()
}
