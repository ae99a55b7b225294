package sim

import (
	"runtime"
	"testing"
)

// stableGoroutines samples the goroutine count after letting freshly
// released goroutines finish exiting.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

func TestShutdownReleasesAbandonedProcs(t *testing.T) {
	base := stableGoroutines()
	eng := NewEngine()
	q := NewWaitQueue(eng, "never-signaled")
	const procs = 50
	for i := 0; i < procs; i++ {
		eng.Spawn("parked", func(p *Proc) {
			q.Wait(p) // no one ever signals
		})
	}
	eng.Spawn("stopper", func(p *Proc) {
		p.Sleep(10)
		eng.Stop()
	})
	eng.RunUntil(MaxTime)
	if eng.Live() != procs {
		t.Fatalf("Live = %d before Shutdown, want %d", eng.Live(), procs)
	}

	eng.Shutdown()
	if eng.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", eng.Live())
	}
	if got := goroutinesDownTo(base); got > base {
		t.Errorf("goroutines leaked: %d before, %d after Shutdown", base, got)
	}
}

func TestShutdownReleasesNeverRunProcs(t *testing.T) {
	// Processes spawned but never dispatched (engine stopped first) must
	// also exit: their poison arrives at the initial resume receive.
	eng := NewEngine()
	eng.Spawn("never-run", func(p *Proc) {
		t.Error("process body ran after Stop")
	})
	eng.Stop()
	eng.Run()
	eng.Shutdown()
	if eng.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", eng.Live())
	}
}

func TestShutdownIsIdempotentAndNoOpWhenDrained(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Spawn("worker", func(p *Proc) {
		p.Sleep(5)
		ran = true
	})
	eng.Run()
	if !ran {
		t.Fatal("worker did not run")
	}
	eng.Shutdown()
	eng.Shutdown()
	if eng.Live() != 0 {
		t.Fatalf("Live = %d, want 0", eng.Live())
	}
}

func TestShutdownUnwindsDefersInProcs(t *testing.T) {
	// The poison wake must unwind the process stack so its defers run —
	// that is what makes Shutdown safe for processes holding resources.
	eng := NewEngine()
	cleaned := false
	mu := NewMutex(eng, "held")
	eng.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		defer func() { cleaned = true }()
		NewWaitQueue(eng, "forever").Wait(p)
	})
	eng.Spawn("stopper", func(p *Proc) {
		p.Sleep(1)
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	if !cleaned {
		t.Error("deferred cleanup did not run during Shutdown")
	}
}

func TestShutdownAfterDeadlineRun(t *testing.T) {
	// The RunWithOptions deadline path: the clock stops mid-workload
	// with sleepers still pending; Shutdown must release them too.
	eng := NewEngine()
	eng.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(100)
		}
	})
	if at := eng.RunUntil(1000); at != 1000 {
		t.Fatalf("RunUntil returned t=%v, want 1000", at)
	}
	eng.Shutdown()
	if eng.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", eng.Live())
	}
}

// TestSeqEpochNoAliasAcrossRestart pins the epoch seeding: an engine
// constructed after another one ran (the Shutdown/restart pattern in
// tests) starts its seq counter strictly above everything the earlier
// engine issued, so a resumed simulation can never reissue — and thus
// never reorder against — seq numbers from a previous engine's life.
func TestSeqEpochNoAliasAcrossRestart(t *testing.T) {
	first := NewEngine()
	for i := 0; i < 3; i++ {
		first.Spawn("w", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Sleep(1)
			}
		})
	}
	first.RunUntil(50)
	first.Stop()
	first.Shutdown()

	second := NewEngine()
	if second.seq <= first.seq {
		t.Fatalf("restarted engine seq %d does not clear prior engine's last seq %d", second.seq, first.seq)
	}
	if second.seq%seqEpochStride != 0 {
		t.Fatalf("engine seq base %d not a stride multiple", second.seq)
	}
}
