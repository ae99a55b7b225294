// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides virtual time measured in integer nanoseconds and
// cooperatively scheduled processes: each process is a coroutine, and the
// engine's run loop is the only thing that ever resumes one. All
// far-memory experiments in this repository run on this engine so that
// results are reproducible bit-for-bit: given the same seed and
// configuration, every run produces the same event order and the same
// measurements.
//
// A process interacts with the engine only through its *Proc handle:
//
//	eng := sim.NewEngine()
//	eng.Spawn("worker", func(p *sim.Proc) {
//		p.Sleep(100)        // advance virtual time by 100 ns
//		mu.Lock(p)          // FIFO-queued mutex; waiting costs virtual time
//		defer mu.Unlock(p)
//		...
//	})
//	eng.Run()
//
// Exactly one process executes at any instant, by construction: a process
// runs only between the loop's resume and its own suspend, on the thread
// of whoever called Run. Code between blocking calls (Sleep, Lock, Wait,
// ...) therefore never races with other processes and needs no host-level
// synchronization. Which process runs next is the event heap's (time, seq)
// order and nothing else; the Go scheduler is never asked.
//
// A one-shot helper that only sleeps, takes a Mutex and signals need not
// be a process at all. It is a chain of continuations, events that carry
// a func() instead of a process:
//
//	eng.After(d, func() {          // runs d from now
//		link.LockThen(func() { // runs holding link, in its FIFO turn
//			eng.After(wire, func() { link.Release(); done.Broadcast() })
//		})
//	})
//
// Whoever pops a continuation's event runs it on the spot: the run loop,
// or a process parking in Sleep, Lock or Wait. It costs no resume, and it
// must never block.
package sim

import (
	"fmt"
	"math"
	"sort"

	"mage/internal/invariant"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, usable as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// wakeReason records why a blocked process resumed.
type wakeReason int

const (
	wakeNone wakeReason = iota
	wakeSleep
	wakeSignal
	wakeTimeout
)

// event is a process's wake or, when k is set, a continuation: a function
// run by whoever pops the event (the loop, or a parking process), with no
// process of its own.
type event struct {
	at       Time
	seq      uint64
	p        *Proc
	k        func()
	reason   wakeReason
	canceled bool
}

// before is the event ordering: time, then schedule order. seq is issued
// by one engine-wide counter, so no two events tie and this is a total
// order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (at, seq). The sift loops
// are inlined here rather than going through container/heap: the
// interface boxing and indirect Less/Swap calls cost more than the
// comparisons themselves on this hot path.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() *event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return ev
}

// Proc is the handle a simulated process uses to interact with the engine.
type Proc struct {
	eng     *Engine
	name    string
	id      int
	co      coro       // the suspended body; see switch_coro.go
	woke    wakeReason // the reason on the wake event last delivered
	blocked bool       // parked with no pending event (waiting on a queue)
	pending *event     // the single scheduled wake event, if any
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine runs the simulation: it owns the virtual clock and the event
// queue, and Run's loop is the one dispatcher: it pops the head and
// resumes that event's process, which runs until it parks or returns and
// so hands control straight back to the loop. A parking process whose own
// event is the next one takes it and keeps running without any switch,
// and it runs any continuation it pops on its own stack before it looks
// again. A process is never runnable in the Go scheduler's sense, only
// resumed by the loop, so exactly one runs at a time by construction and
// the shared state below needs no locking.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// free is the *event freelist: dispatched and canceled events are
	// recycled so steady-state scheduling allocates nothing.
	free []*event
	// popped is the event a parking process took off the queue and found
	// to be another process's: it suspends and the loop dispatches this
	// instead of calling next again, so next runs once per event.
	popped *event
	// resumes counts the loop's hand-offs into a process, dispatched the
	// events next has handed out: counts, not timings, that a test or a
	// benchmark can hold the no-switch park and the continuations to.
	resumes    uint64
	dispatched uint64
	procs      []*Proc // indexed by Proc.ID; nil once exited
	live       int
	panicV     interface{}
	// lastAt, lastSeq: the key next last returned (magecheck builds only).
	lastAt  Time
	lastSeq uint64
}

// NewEngine returns an engine with the clock at zero and no processes.
// Its first event takes seq 1, so every event dispatched follows the
// (0, 0) key the dispatch order check starts from.
func NewEngine() *Engine {
	return &Engine{seq: 1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of processes that have not yet exited.
func (e *Engine) Live() int { return e.live }

// Resumes returns how many times the run loop has switched into a
// process. A process that finds its own wake next when it parks, or pops
// a continuation, costs none.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Dispatched returns how many events have been dispatched: process wakes
// and continuations alike, canceled events not counted.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Spawn creates a process that will begin executing fn at the current
// virtual time. It may be called before Run or from inside a running
// process.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: len(e.procs)}
	e.live++
	e.procs = append(e.procs, p)
	e.scheduleWake(p, e.now, wakeSleep)
	// The body starts when the loop dispatches the wake event above.
	p.co.init(func() {
		defer func() {
			if v := recover(); v != nil {
				e.panicV = v
			}
			e.retire(p)
		}()
		fn(p)
	})
	return p
}

// retire takes an exiting process off the books.
func (e *Engine) retire(p *Proc) {
	e.live--
	e.procs[p.id] = nil
}

func (e *Engine) schedule(at Time, p *Proc, reason wakeReason) *event {
	if at < e.now {
		at = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{at: at, seq: e.seq, p: p, reason: reason}
	} else {
		ev = &event{at: at, seq: e.seq, p: p, reason: reason}
	}
	e.seq++
	e.events.push(ev)
	return ev
}

// After schedules the continuation k to run d from now; a non-positive d
// runs it at the current instant, after every event already due then.
// The event takes its seq here, exactly as a process's Sleep(d) would
// have, so a one-shot helper rewritten from Spawn, Sleep and Lock to
// After and Mutex.LockThen keeps every event's (time, seq). k runs on the
// stack of whoever pops it and must not block: it goes on by scheduling
// the next continuation.
func (e *Engine) After(d Time, k func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, wakeNone).k = k
}

// recycle returns a no-longer-referenced event to the freelist.
func (e *Engine) recycle(ev *event) {
	ev.p, ev.k = nil, nil
	e.free = append(e.free, ev)
}

// next pops the next dispatchable event, recycling canceled carcasses it
// finds on the way. It returns nil once the queue is drained.
func (e *Engine) next() *event {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		if invariant.Enabled {
			// The heap's contract: events leave in strictly increasing
			// (at, seq) order, and never behind the clock.
			invariant.Assert(ev.at >= e.now,
				"sim: event at t=%v dispatched after clock reached t=%v", ev.at, e.now)
			invariant.Assert(ev.at > e.lastAt || (ev.at == e.lastAt && ev.seq > e.lastSeq),
				"sim: event (t=%v, seq %d) dispatched after (t=%v, seq %d)", ev.at, ev.seq, e.lastAt, e.lastSeq)
			e.lastAt, e.lastSeq = ev.at, ev.seq
		}
		e.dispatched++
		return ev
	}
	return nil
}

// deliver advances the clock to ev, consumes it, and returns its process
// with the wake reason noted in it; the caller runs that process next.
func (e *Engine) deliver(ev *event) *Proc {
	e.now = ev.at
	p := ev.p
	p.woke = ev.reason
	p.pending = nil
	e.recycle(ev)
	return p
}

// run advances the clock to a continuation's event, consumes it and runs
// its function on the caller's stack.
func (e *Engine) run(ev *event) {
	e.now = ev.at
	k := ev.k
	e.recycle(ev)
	k()
}

// scheduleWake arranges for p to resume at time at, canceling any
// previously pending wake.
func (e *Engine) scheduleWake(p *Proc, at Time, reason wakeReason) {
	if p.pending != nil {
		p.pending.canceled = true
	}
	p.pending = e.schedule(at, p, reason)
	p.blocked = false
}

// Run processes events until none remain and returns the final virtual
// time. That is the one way a run ends. If processes remain blocked with
// no pending events (a simulated deadlock), Run panics with a description
// of the stuck processes. If a process panicked, Run re-panics with its
// value; a continuation the loop pops runs on the caller's stack, so its
// panic leaves Run directly. Either panic leaves the engine's other
// processes suspended where they were.
func (e *Engine) Run() Time {
	for {
		ev := e.popped
		e.popped = nil
		if ev == nil {
			if ev = e.next(); ev == nil {
				break
			}
		}
		if ev.k != nil {
			e.run(ev)
			continue
		}
		p := e.deliver(ev)
		e.resumes++
		p.co.resume()
		if e.panicV != nil {
			panic(e.panicV)
		}
	}
	if e.live > 0 {
		panic(fmt.Sprintf("sim: deadlock at t=%v: %d blocked process(es): %v",
			e.now, e.live, e.blockedNames()))
	}
	return e.now
}

func (e *Engine) blockedNames() []string {
	var names []string
	for _, p := range e.procs {
		if p != nil {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	if len(names) > 8 {
		names = append(names[:8], "...")
	}
	return names
}

// park suspends the process until its next wake event is dispatched. It
// pops the next event itself: a continuation it runs on the spot and pops
// again; when the event is its own (consecutive sleeps with no one else
// due) it returns without any switch; otherwise it leaves the event, or
// nil when nothing is dispatchable, for the loop and suspends. A
// continuation that panics here unwinds this process, whose spawn wrapper
// hands the value to the loop.
func (p *Proc) park() wakeReason {
	e := p.eng
	ev := e.next()
	for ev != nil && ev.k != nil {
		e.run(ev)
		ev = e.next()
	}
	if ev != nil && ev.p == p {
		e.deliver(ev)
		return p.woke
	}
	e.popped = ev
	p.co.suspend()
	return p.woke
}

// Sleep advances this process's virtual time by d nanoseconds. Other
// processes run in the meantime. A non-positive d yields without advancing
// time (the process is rescheduled at the current instant, after any
// already-scheduled events at this instant).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleWake(p, p.eng.now+d, wakeSleep)
	p.park()
}

// block parks the process with no pending event; some other process must
// call eng.wake to resume it.
func (p *Proc) block() wakeReason {
	p.blocked = true
	r := p.park()
	p.blocked = false
	return r
}

// wake resumes a process blocked in block(), at the current time.
func (e *Engine) wake(p *Proc, reason wakeReason) {
	if !p.blocked {
		panic("sim: wake of non-blocked process " + p.name)
	}
	e.scheduleWake(p, e.now, reason)
}
