package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The switch contract: what the engine promises whichever file makes its
// hand-offs. Every test here passes over switch_coro.go and, with
// -tags simchan, over switch_chan.go, with the same assertions.

// goroutinesDownTo samples the goroutine count until it has fallen to
// base. Under the channel twin a killed body has handed control back
// before its goroutine is quite gone, so the count is awaited, briefly,
// not read once; a leak still shows as a count that never comes down.
func goroutinesDownTo(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > base; i++ {
		time.Sleep(50 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// parkForever blocks p on a queue nobody signals, counting in *cleaned
// when its stack is unwound.
func parkForever(eng *Engine, cleaned *int) func(*Proc) {
	return func(p *Proc) {
		defer func() { *cleaned++ }()
		NewWaitQueue(eng, "never").Wait(p)
	}
}

// TestParkOwnEventDoesNotSwitch counts hand-offs rather than timing them:
// a process whose own wake is the next event keeps running, and only an
// event that belongs to someone else goes through the loop.
func TestParkOwnEventDoesNotSwitch(t *testing.T) {
	rows := []struct {
		name    string
		program func(*Engine)
		want    uint64
	}{
		{"one sleeper, 1000 parks: the start and nothing else", func(e *Engine) {
			e.Spawn("solo", func(p *Proc) {
				for i := 0; i < 1000; i++ {
					p.Sleep(3)
				}
			})
		}, 1},
		{"two sleepers in lock step: every park hands off", func(e *Engine) {
			for i := 0; i < 2; i++ {
				e.Spawn("pair", func(p *Proc) {
					for j := 0; j < 100; j++ {
						p.Sleep(10)
					}
				})
			}
		}, 2 + 2*100},
		{"a fast sleeper beside a slow one: only the slow one's wakes interrupt", func(e *Engine) {
			e.Spawn("fast", func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Sleep(1) // t = 1..1000
				}
			})
			e.Spawn("slow", func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(200) // t = 200..800, each queued long before fast's wake at that instant
				}
			})
		}, 3 + 2*4}, // two starts and fast's first wake, then slow and back to fast four times
	}
	for _, r := range rows {
		eng := NewEngine()
		r.program(eng)
		eng.Run()
		if eng.resumes != r.want {
			t.Errorf("%s: %d hand-offs, want %d", r.name, eng.resumes, r.want)
		}
	}
}

func TestPanicSurfacesAndShutdownCleansUp(t *testing.T) {
	base := stableGoroutines()
	eng := NewEngine()
	cleaned := 0
	eng.Spawn("bystander", parkForever(eng, &cleaned))
	eng.Spawn("bomb", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Sleep(5)
		panic("boom")
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		eng.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if eng.Live() != 1 || cleaned != 1 {
		t.Fatalf("after the panic: Live %d, %d clean-ups; want the bystander live and the bomb's one clean-up", eng.Live(), cleaned)
	}
	eng.Shutdown()
	if eng.Live() != 0 || cleaned != 2 {
		t.Errorf("after Shutdown: Live %d, %d clean-ups; want 0 and 2", eng.Live(), cleaned)
	}
	if n := goroutinesDownTo(base); n != base {
		t.Errorf("goroutines: %d, want %d", n, base)
	}
}

// TestGoexitInsideProcess: a process that leaves by runtime.Goexit (which
// is how t.FailNow and t.SkipNow leave) unwinds its own stack and then
// takes Run's caller with it, so a test that fails inside a process stops
// there instead of simulating on. The engine is left consistent: the
// caller's deferred Shutdown works.
func TestGoexitInsideProcess(t *testing.T) {
	failed := new(testing.T)
	rows := []struct {
		name string
		exit func()
	}{
		{"runtime.Goexit", runtime.Goexit},
		{"t.FailNow", failed.FailNow},
	}
	for _, r := range rows {
		base := stableGoroutines()
		eng := NewEngine()
		cleaned, returned := 0, false
		eng.Spawn("bystander", parkForever(eng, &cleaned))
		eng.Spawn("quitter", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Sleep(5)
			r.exit()
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer eng.Shutdown()
			eng.Run()
			returned = true
		}()
		<-done
		if returned {
			t.Errorf("%s: Run returned to its caller", r.name)
		}
		if eng.Live() != 0 || cleaned != 2 {
			t.Errorf("%s: Live %d, %d clean-ups; want 0 and 2", r.name, eng.Live(), cleaned)
		}
		if n := goroutinesDownTo(base); n != base {
			t.Errorf("%s: goroutines: %d, want %d", r.name, n, base)
		}
	}
	if !failed.Failed() {
		t.Error("FailNow inside a process did not mark its test failed")
	}
}

// TestShutdownEveryState: Shutdown meets a process in each state it can
// be abandoned in. Afterwards none is live, every stack that was ever
// entered has been unwound exactly once, and no goroutine is left.
func TestShutdownEveryState(t *testing.T) {
	rows := []struct {
		name    string
		run     func(eng *Engine, cleaned *int)
		cleaned int
	}{
		{"never started", func(eng *Engine, cleaned *int) {
			eng.Spawn("unborn", func(p *Proc) {
				defer func() { *cleaned++ }()
				t.Error("never started: body ran")
			})
			eng.Stop()
			eng.Run()
		}, 0},
		{"parked on a queue", func(eng *Engine, cleaned *int) {
			eng.Spawn("parked", parkForever(eng, cleaned))
			eng.Spawn("stopper", func(p *Proc) { p.Sleep(1); eng.Stop() })
			eng.Run()
		}, 1},
		{"abandoned by a deadline, wake still queued", func(eng *Engine, cleaned *int) {
			eng.Spawn("sleeper", func(p *Proc) {
				defer func() { *cleaned++ }()
				for {
					p.Sleep(100)
				}
			})
			eng.RunUntil(250)
		}, 1},
		{"spawned from inside a process", func(eng *Engine, cleaned *int) {
			eng.Spawn("parent", func(p *Proc) {
				eng.Spawn("child", parkForever(eng, cleaned))
				p.Sleep(0)
				eng.Spawn("unborn child", parkForever(eng, cleaned)) // Stop lands before its start event
				eng.Stop()
			})
			eng.Run()
		}, 1},
	}
	for _, r := range rows {
		base := stableGoroutines()
		eng := NewEngine()
		cleaned := 0
		r.run(eng, &cleaned)
		if eng.Live() == 0 {
			t.Errorf("%s: nothing left for Shutdown to do", r.name)
		}
		eng.Shutdown()
		eng.Shutdown()
		if eng.Live() != 0 {
			t.Errorf("%s: Live %d after Shutdown", r.name, eng.Live())
		}
		if cleaned != r.cleaned {
			t.Errorf("%s: %d clean-ups, want %d", r.name, cleaned, r.cleaned)
		}
		if n := goroutinesDownTo(base); n != base {
			t.Errorf("%s: goroutines: %d, want %d", r.name, n, base)
		}
	}
}

// TestSpawnInsideProcessOrder: a child spawned by a running process
// starts at the current instant, behind the events already queued at
// that instant and ahead of later ones.
func TestSpawnInsideProcessOrder(t *testing.T) {
	eng := NewEngine()
	var got []string
	log := func(p *Proc, what string) {
		got = append(got, fmt.Sprintf("t=%d %s", p.Now(), what))
	}
	eng.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		eng.Spawn("child", func(c *Proc) { log(c, "child") })
		log(p, "parent spawned")
		p.Sleep(0)
		log(p, "parent again")
	})
	eng.Spawn("peer", func(p *Proc) {
		p.Sleep(10)
		log(p, "peer")
	})
	eng.Run()
	want := []string{"t=10 parent spawned", "t=10 peer", "t=10 child", "t=10 parent again"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %q, want %q", got, want)
	}
}

// TestRunUntilResumes: a second RunUntil picks up exactly where the first
// one's deadline left the queue, whether the process it stopped was
// alone (parks that never reach the loop) or had company.
func TestRunUntilResumes(t *testing.T) {
	for _, procs := range []int{1, 3} {
		eng := NewEngine()
		var got []string
		for i := 0; i < procs; i++ {
			eng.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(100)
					got = append(got, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				}
			})
		}
		var stops []Time
		for _, d := range []Time{250, 250, 300} {
			stops = append(stops, eng.RunUntil(d))
		}
		mid := len(got)
		stops = append(stops, eng.Run())
		if want := []Time{250, 250, 300, 400}; !reflect.DeepEqual(stops, want) {
			t.Errorf("%d procs: RunUntil returned %v, want %v", procs, stops, want)
		}
		var want []string
		for j := 1; j <= 4; j++ {
			for i := 0; i < procs; i++ {
				want = append(want, fmt.Sprintf("p%d@%d", i, j*100))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d procs: steps %q, want %q", procs, got, want)
		}
		if mid != 3*procs {
			t.Errorf("%d procs: %d steps by t=300, want %d", procs, mid, 3*procs)
		}
		if eng.Live() != 0 {
			t.Errorf("%d procs: Live %d after the drain", procs, eng.Live())
		}
	}
}
