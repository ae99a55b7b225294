package sim

import (
	"fmt"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1500)
		at = p.Now()
	})
	end := e.Run()
	if at != 1500 {
		t.Errorf("proc observed t=%v, want 1500", at)
	}
	if end != 1500 {
		t.Errorf("Run returned %v, want 1500", end)
	}
}

func TestNegativeSleepClampsToZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("time moved backwards: %v", p.Now())
		}
	})
	e.Run()
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			order = append(order, p.Name())
		})
	}
	e.Run()
	for i, n := range order {
		want := fmt.Sprintf("p%d", i)
		if n != want {
			t.Fatalf("order[%d] = %q, want %q (full order %v)", i, n, want, order)
		}
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Time(10 * (i + 1)))
					trace = append(trace, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != 10 {
				t.Errorf("child started at %v, want 10", c.Now())
			}
			childRan = true
		})
		p.Sleep(10)
	})
	e.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	q := new(WaitQueue)
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	e.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("panic value = %v, want boom", r)
		}
	}()
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	e.Run()
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	e := NewEngine()
	mu := NewMutex(e, "mu")
	var order []string
	inside := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, p.Name())
			p.Sleep(100)
			inside--
			mu.Unlock(p)
		})
	}
	e.Run()
	want := []string{"w0", "w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
	if mu.Contended != 3 {
		t.Errorf("Contended = %d, want 3", mu.Contended)
	}
	// w1 waits 100, w2 waits 200, w3 waits 300.
	if mu.WaitNs != 600 {
		t.Errorf("WaitNs = %d, want 600", mu.WaitNs)
	}
	if mu.MaxWaitNs != 300 {
		t.Errorf("MaxWaitNs = %d, want 300", mu.MaxWaitNs)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	mu := NewMutex(e, "mu")
	e.Spawn("a", func(p *Proc) { mu.Unlock(p) })
	e.Run()
}

func TestWaitQueueSignalFIFO(t *testing.T) {
	e := NewEngine()
	q := new(WaitQueue)
	var woke []string
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			q.Wait(p)
			woke = append(woke, p.Name())
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(10)
		if n := q.Signal(2); n != 2 {
			t.Errorf("Signal(2) = %d", n)
		}
		p.Sleep(10)
		if n := q.Broadcast(); n != 1 {
			t.Errorf("Broadcast = %d", n)
		}
	})
	e.Run()
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order = %v", woke)
		}
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	q := new(WaitQueue)
	e.Spawn("w", func(p *Proc) {
		ok := q.WaitTimeout(p, 50)
		if ok {
			t.Error("expected timeout")
		}
		if p.Now() != 50 {
			t.Errorf("woke at %v, want 50", p.Now())
		}
		if q.Len() != 0 {
			t.Errorf("queue still has %d waiters after timeout", q.Len())
		}
	})
	e.Run()
}

func TestWaitTimeoutSignaledEarly(t *testing.T) {
	e := NewEngine()
	q := new(WaitQueue)
	e.Spawn("w", func(p *Proc) {
		ok := q.WaitTimeout(p, 1000)
		if !ok {
			t.Error("expected signal, got timeout")
		}
		if p.Now() != 20 {
			t.Errorf("woke at %v, want 20", p.Now())
		}
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(20)
		q.Signal(1)
	})
	end := e.Run()
	if end != 20 {
		t.Errorf("run ended at %v; stale timeout event should be canceled", end)
	}
}

// TestWaitQueueZeroValue: a WaitQueue needs no constructor and no
// engine of its own. A declared queue parks processes with Wait and
// WaitTimeout, times one out, and releases the others with Signal and
// Broadcast, all on the engine of the processes it serves.
func TestWaitQueueZeroValue(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	woke := map[string]Time{}
	e.Spawn("wait", func(p *Proc) {
		q.Wait(p)
		woke[p.Name()] = p.Now()
	})
	e.Spawn("signaled", func(p *Proc) {
		if !q.WaitTimeout(p, 1000) {
			t.Error("signaled: timed out")
		}
		woke[p.Name()] = p.Now()
	})
	e.Spawn("expires", func(p *Proc) {
		if q.WaitTimeout(p, 5) {
			t.Error("expires: signaled, want a timeout")
		}
		woke[p.Name()] = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		if n := q.Signal(1); n != 1 {
			t.Errorf("Signal(1) = %d", n)
		}
		p.Sleep(10)
		if n := q.Broadcast(); n != 1 {
			t.Errorf("Broadcast = %d", n)
		}
	})
	if end := e.Run(); end != 20 {
		t.Errorf("run ended at %v, want 20", end)
	}
	want := map[string]Time{"wait": 10, "signaled": 20, "expires": 5}
	for name, at := range want {
		if woke[name] != at {
			t.Errorf("%s woke at %v, want %v", name, woke[name], at)
		}
	}
}

func TestChanPutGetOrder(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](2)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			for !c.TryPut(i) {
				p.Sleep(1) // full: try again once the consumer has taken one
			}
			p.Sleep(1)
		}
		c.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := c.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
			p.Sleep(3)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func BenchmarkSleepHandoff(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkMutexUncontended(b *testing.B) {
	e := NewEngine()
	mu := NewMutex(e, "mu")
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mu.Lock(p)
			mu.Unlock(p)
		}
	})
	b.ResetTimer()
	e.Run()
}
