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

// stableGoroutines samples the goroutine count once it has held for a
// millisecond, so that the goroutines an earlier test's bodies ran on
// have finished exiting before it is taken as a base.
func stableGoroutines() int {
	n, held := runtime.NumGoroutine(), 0
	for i := 0; i < 2000 && held < 20; i++ {
		time.Sleep(50 * time.Microsecond)
		if m := runtime.NumGoroutine(); m == n {
			held++
		} else {
			n, held = m, 0
		}
	}
	return n
}

// goroutinesDownTo samples the goroutine count until it has fallen to
// base. Under the channel twin a body that has returned hands control
// back before its goroutine is quite gone, so the count is awaited,
// briefly, not read once; a leak still shows as a count that never comes
// down.
func goroutinesDownTo(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > base; i++ {
		time.Sleep(50 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDrainedRunReleasesEverything: a Run that drains its queue is the
// one way an engine ends, and it leaves nothing behind: no live process
// and no goroutine, whichever way each body parked on the way (sleeps,
// queues, timeouts, mutexes, a channel, a child spawned mid-run,
// continuations).
func TestDrainedRunReleasesEverything(t *testing.T) {
	base := stableGoroutines()
	eng := NewEngine()
	q := new(WaitQueue)
	mu := NewMutex(eng, "mu")
	c := NewChan[int](2)
	const workers = 50
	for i := 0; i < workers; i++ {
		eng.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i % 7))
			mu.Lock(p)
			p.Sleep(1)
			mu.Unlock(p)
			if i%2 == 0 {
				q.Wait(p)
			} else {
				q.WaitTimeout(p, 3)
			}
		})
	}
	eng.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		q.Broadcast()
		eng.Spawn("child", func(p *Proc) {
			for i := 0; i < 5; i++ {
				for !c.TryPut(i) {
					p.Sleep(1)
				}
			}
			c.Close()
		})
	})
	got := 0
	eng.Spawn("reader", func(p *Proc) {
		for {
			if _, ok := c.Get(p); !ok {
				return
			}
			got++
			p.Sleep(2)
		}
	})
	ks := 0
	eng.After(50, func() { mu.LockThen(func() { ks++; eng.After(1, mu.Release) }) })
	end := eng.Run()
	if end <= 100 || got != 5 || ks != 1 {
		t.Errorf("run ended at %v with %d items read and %d continuations; want past t=100, 5 and 1", end, got, ks)
	}
	if eng.Live() != 0 || len(eng.events) != 0 || mu.held {
		t.Errorf("after the drain: Live %d, %d events queued, mutex held %v; want 0, 0, false", eng.Live(), len(eng.events), mu.held)
	}
	if n := goroutinesDownTo(base); n != base {
		t.Errorf("goroutines: %d, want %d", n, base)
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

// TestPanicSurfaces: a process's panic leaves Run with its value once the
// process's own stack has unwound. The bystander stays parked where it
// was: nothing ends an engine early.
func TestPanicSurfaces(t *testing.T) {
	eng := NewEngine()
	cleaned := 0
	eng.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned++ }()
		new(WaitQueue).Wait(p) // nobody signals it
	})
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
}

// TestGoexitInsideProcess: a process that leaves by runtime.Goexit (which
// is how t.FailNow and t.SkipNow leave) unwinds its own stack and then
// takes Run's caller with it, so a test that fails inside a process stops
// there instead of simulating on. The process is retired on the way out,
// and neither its goroutine nor the caller's is left.
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
		eng.Spawn("quitter", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Sleep(5)
			r.exit()
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			eng.Run()
			returned = true
		}()
		<-done
		if returned {
			t.Errorf("%s: Run returned to its caller", r.name)
		}
		if eng.Live() != 0 || cleaned != 1 {
			t.Errorf("%s: Live %d, %d clean-ups; want 0 and 1", r.name, eng.Live(), cleaned)
		}
		if n := goroutinesDownTo(base); n != base {
			t.Errorf("%s: goroutines: %d, want %d", r.name, n, base)
		}
	}
	if !failed.Failed() {
		t.Error("FailNow inside a process did not mark its test failed")
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
