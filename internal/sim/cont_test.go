package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A one-shot helper written as a chain of continuations must be, event
// for event, the process it replaces: the same (time, seq) for every
// step, so the same trace. These tests build the same seeded programs
// both ways and compare; like the rest of the package they run over
// switch_coro.go and, with -tags simchan, over switch_chan.go.

type stepKind int

const (
	stepSleep     stepKind = iota // sleep d
	stepLocked                    // lock mutex m, sleep d, unlock
	stepBroadcast                 // broadcast wait queue q
)

type step struct {
	kind stepKind
	d    Time
	m, q int
}

// chainPlan is one one-shot helper: started by the launcher after gap.
type chainPlan struct {
	gap   Time
	steps []step
}

// contPlan is a seeded program: one-shot chains started by a launcher
// process (and a few before Run), beside long-lived sleepers that take
// the same mutexes and waiters that wait, with timeouts, on the queues
// the chains broadcast.
type contPlan struct {
	mutexes, queues int
	early, chains   []chainPlan
	sleepers        [][]step // stepSleep and stepLocked only
	waiters         [][]Time // WaitTimeout durations, queue by index
}

func newContPlan(seed int64) contPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := contPlan{mutexes: 1 + rng.Intn(3), queues: 1 + rng.Intn(2)}
	chain := func() chainPlan {
		c := chainPlan{gap: Time(rng.Intn(40))}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			s := step{kind: stepKind(rng.Intn(3)), d: Time(rng.Intn(30))}
			if rng.Intn(5) == 0 {
				s.d = 0 // a zero sleep still yields and takes a seq
			}
			s.m, s.q = rng.Intn(pl.mutexes), rng.Intn(pl.queues)
			c.steps = append(c.steps, s)
		}
		return c
	}
	for n := rng.Intn(4); n > 0; n-- {
		pl.early = append(pl.early, chain())
	}
	for n := 20 + rng.Intn(40); n > 0; n-- {
		pl.chains = append(pl.chains, chain())
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		var s []step
		for k := 10 + rng.Intn(30); k > 0; k-- {
			s = append(s, step{kind: stepKind(rng.Intn(2)), d: Time(1 + rng.Intn(25)), m: rng.Intn(pl.mutexes)})
		}
		pl.sleepers = append(pl.sleepers, s)
	}
	for q := 0; q < pl.queues; q++ {
		var w []Time
		for k := 5 + rng.Intn(20); k > 0; k-- {
			w = append(w, Time(1+rng.Intn(60)))
		}
		pl.waiters = append(pl.waiters, w)
	}
	return pl
}

type traceRec struct {
	at    Time
	label string
}

type contWorld struct {
	eng   *Engine
	mus   []*Mutex
	qs    []*WaitQueue
	trace []traceRec
}

func (w *contWorld) note(format string, args ...any) {
	w.trace = append(w.trace, traceRec{w.eng.Now(), fmt.Sprintf(format, args...)})
}

// procChain is a chain as the process it used to be.
func (w *contWorld) procChain(name string, steps []step) func(*Proc) {
	return func(p *Proc) {
		for i, s := range steps {
			switch s.kind {
			case stepSleep:
				p.Sleep(s.d)
			case stepLocked:
				m := w.mus[s.m]
				m.Lock(p)
				w.note("%s.%d locked", name, i)
				p.Sleep(s.d)
				m.Unlock(p)
			case stepBroadcast:
				w.qs[s.q].Broadcast()
			}
			w.note("%s.%d", name, i)
		}
	}
}

// contChain runs steps[i:] as continuations: a sleep is After, a lock is
// LockThen, and the rest of the chain goes on from the step's end.
func (w *contWorld) contChain(name string, steps []step, i int) {
	for ; i < len(steps); i++ {
		s, i := steps[i], i
		switch s.kind {
		case stepSleep:
			w.eng.After(s.d, func() {
				w.note("%s.%d", name, i)
				w.contChain(name, steps, i+1)
			})
			return
		case stepLocked:
			m := w.mus[s.m]
			m.LockThen(func() {
				w.note("%s.%d locked", name, i)
				w.eng.After(s.d, func() {
					m.Release()
					w.note("%s.%d", name, i)
					w.contChain(name, steps, i+1)
				})
			})
			return
		case stepBroadcast:
			w.qs[s.q].Broadcast()
			w.note("%s.%d", name, i)
		}
	}
}

type contResult struct {
	trace                []traceRec
	end                  Time
	seqs, dispatched     uint64
	resumes, waitNs      uint64
	acquires, contention uint64
}

// runContPlan runs pl with its chains as processes or as continuations.
func runContPlan(pl contPlan, asCont bool) contResult {
	eng := NewEngine()
	seq0 := eng.seq
	w := &contWorld{eng: eng}
	for i := 0; i < pl.mutexes; i++ {
		w.mus = append(w.mus, NewMutex(eng, fmt.Sprintf("m%d", i)))
	}
	for i := 0; i < pl.queues; i++ {
		w.qs = append(w.qs, new(WaitQueue))
	}
	start := func(name string, steps []step) {
		if asCont {
			eng.After(0, func() { w.contChain(name, steps, 0) })
		} else {
			eng.Spawn(name, w.procChain(name, steps))
		}
	}
	for i, s := range pl.sleepers {
		name := fmt.Sprintf("sleeper%d", i)
		eng.Spawn(name, func(p *Proc) {
			for j, st := range s {
				if st.kind == stepLocked {
					w.mus[st.m].Lock(p)
					w.note("%s.%d locked", name, j)
					p.Sleep(st.d)
					w.mus[st.m].Unlock(p)
				} else {
					p.Sleep(st.d)
				}
				w.note("%s.%d", name, j)
			}
		})
	}
	for q, ds := range pl.waiters {
		name := fmt.Sprintf("waiter%d", q)
		eng.Spawn(name, func(p *Proc) {
			for j, d := range ds {
				w.note("%s.%d signaled=%v", name, j, w.qs[q].WaitTimeout(p, d))
			}
		})
	}
	for i, c := range pl.early {
		start(fmt.Sprintf("early%d", i), c.steps)
	}
	eng.Spawn("launcher", func(p *Proc) {
		for i, c := range pl.chains {
			p.Sleep(c.gap)
			start(fmt.Sprintf("chain%d", i), c.steps)
		}
	})
	end := eng.Run()
	r := contResult{trace: w.trace, end: end, seqs: eng.seq - seq0, dispatched: eng.Dispatched(), resumes: eng.Resumes()}
	for _, m := range w.mus {
		r.waitNs += uint64(m.WaitNs)
		r.acquires += m.Acquires
		r.contention += m.Contended
	}
	return r
}

func TestContinuationsMatchProcesses(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		pl := newContPlan(seed)
		procs, conts := runContPlan(pl, false), runContPlan(pl, true)
		if len(procs.trace) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if !reflect.DeepEqual(procs.trace, conts.trace) {
			for i := range procs.trace {
				if i >= len(conts.trace) || procs.trace[i] != conts.trace[i] {
					t.Fatalf("seed %d: traces part at record %d: process %v, continuation %v", seed, i, procs.trace[i], conts.trace[min(i, len(conts.trace)-1)])
				}
			}
			t.Fatalf("seed %d: continuation trace has %d records, process %d", seed, len(conts.trace), len(procs.trace))
		}
		if procs.end != conts.end || procs.seqs != conts.seqs || procs.dispatched != conts.dispatched {
			t.Errorf("seed %d: end/seqs/events: process %v/%d/%d, continuation %v/%d/%d",
				seed, procs.end, procs.seqs, procs.dispatched, conts.end, conts.seqs, conts.dispatched)
		}
		if procs.waitNs != conts.waitNs || procs.acquires != conts.acquires || procs.contention != conts.contention {
			t.Errorf("seed %d: mutex wait/acquires/contended: process %d/%d/%d, continuation %d/%d/%d",
				seed, procs.waitNs, procs.acquires, procs.contention, conts.waitNs, conts.acquires, conts.contention)
		}
		if conts.resumes >= procs.resumes {
			t.Errorf("seed %d: %d resumes as continuations, %d as processes", seed, conts.resumes, procs.resumes)
		}
	}
}

// TestContinuationInParkCostsNoResume: a continuation popped by a parking
// process runs on that process's stack, so a lone sleeper with a chain of
// continuations interleaved between its wakes is still resumed once.
func TestContinuationInParkCostsNoResume(t *testing.T) {
	eng := NewEngine()
	ran := 0
	var tick func()
	tick = func() {
		if ran++; ran < 100 {
			eng.After(10, tick)
		}
	}
	eng.Spawn("sleeper", func(p *Proc) {
		eng.After(5, tick) // t = 5, 15, 25, ...: always between two wakes
		for i := 0; i < 100; i++ {
			p.Sleep(10)
		}
	})
	eng.Run()
	if ran != 100 {
		t.Fatalf("%d continuations ran, want 100", ran)
	}
	if eng.Resumes() != 1 {
		t.Errorf("%d resumes, want 1: the sleeper's start", eng.Resumes())
	}
	if eng.Dispatched() != 1+100+100 {
		t.Errorf("%d events dispatched, want 201", eng.Dispatched())
	}
}

// TestContinuationPanicSurfaces: a continuation's panic leaves Run whether
// the loop popped it or a parking process did.
func TestContinuationPanicSurfaces(t *testing.T) {
	for _, inPark := range []bool{false, true} {
		eng := NewEngine()
		if inPark {
			eng.Spawn("sleeper", func(p *Proc) {
				for {
					p.Sleep(10)
				}
			})
		}
		eng.After(15, func() { panic("k-boom") })
		var got any
		func() {
			defer func() { got = recover() }()
			eng.Run()
		}()
		if got != "k-boom" {
			t.Errorf("popped in park %v: Run panicked with %v, want k-boom", inPark, got)
		}
		if eng.Now() != 15 {
			t.Errorf("popped in park %v: clock at %v, want 15", inPark, eng.Now())
		}
		if eng.Live() != 0 {
			t.Errorf("popped in park %v: %d live after the panic, want 0: the sleeper that popped it unwound", inPark, eng.Live())
		}
	}
}

// TestMutexHandsOffInOneFIFO: processes and continuations queue for a
// Mutex in one FIFO, and each holder releases with its own call.
func TestMutexHandsOffInOneFIFO(t *testing.T) {
	eng := NewEngine()
	m := NewMutex(eng, "m")
	var order []string
	eng.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		eng.After(0, func() {
			m.LockThen(func() {
				order = append(order, fmt.Sprintf("k1@%d", eng.Now()))
				eng.After(5, m.Release)
			})
		})
		eng.Spawn("p2", func(p *Proc) {
			p.Sleep(1)
			m.Lock(p)
			order = append(order, fmt.Sprintf("p2@%d", p.Now()))
			m.Unlock(p)
		})
		p.Sleep(10)
		m.Unlock(p)
	})
	eng.Run()
	if want := []string{"k1@10", "p2@15"}; !reflect.DeepEqual(order, want) {
		t.Errorf("hand-off order %v, want %v", order, want)
	}
	if m.held || m.Acquires != 3 || m.Contended != 2 || m.WaitNs != 10+14 {
		t.Errorf("locked %v, acquires %d, contended %d, wait %d ns; want free, 3, 2, 24",
			m.held, m.Acquires, m.Contended, m.WaitNs)
	}
	for _, bad := range []struct {
		name string
		f    func()
	}{
		{"Release of a free mutex", m.Release},
		{"Release of a process's mutex", func() {
			eng.Spawn("owner", func(p *Proc) { m.Lock(p); m.Release() })
			eng.Run()
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", bad.name)
				}
			}()
			bad.f()
		}()
	}
}
