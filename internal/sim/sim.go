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
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic" //magevet:ok engine-construction epoch only: seeds seq before any process runs; all simulation state stays single-threaded

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

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

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

type event struct {
	at       Time
	seq      uint64
	p        *Proc
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

// ID returns a small unique integer identifying this process.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine runs the simulation: it owns the virtual clock and the event
// queue, and RunUntil's loop is the one dispatcher: it pops the head and
// resumes that event's process, which runs until it parks or returns and
// so hands control straight back to the loop. A parking process whose own
// event is the next one takes it and keeps running without any switch. A
// process is never runnable in the Go scheduler's sense, only resumed by
// the loop, so exactly one runs at a time by construction and the shared
// state below needs no locking.
type Engine struct {
	now      Time
	seq      uint64
	deadline Time
	events   eventHeap
	// free is the *event freelist: dispatched and canceled events are
	// recycled so steady-state scheduling allocates nothing.
	free []*event
	cur  *Proc
	// popped is the event a parking process took off the queue and found
	// to be another process's: it suspends and the loop dispatches this
	// instead of calling next again, so next runs once per event.
	popped *event
	// resumes counts the loop's hand-offs, so that a test can hold the
	// no-switch park to a count instead of a timing.
	resumes uint64
	procs   []*Proc // indexed by Proc.ID; nil once exited
	live    int
	panicV  interface{}
	stopped bool
	// lastAt, lastSeq: the key next last returned (magecheck builds only).
	lastAt  Time
	lastSeq uint64
}

// engineEpoch seeds each new engine's seq counter. Every engine gets a
// disjoint 2^40-wide seq range, mirroring how memnode seeds region IDs
// from an epoch: an engine constructed after another (e.g. a test that
// Shutdowns one engine and builds a replacement) can never reissue seq
// numbers the earlier engine used, so resumed or restarted runs cannot
// alias event ordering. Ordering within an engine only ever compares
// seqs sharing the same base, so the base offset is invisible to
// digests.
var engineEpoch atomic.Uint64

// seqEpochStride is the seq-number range reserved per engine. 2^40
// events per engine before ranges could touch, 2^24 engines per process
// before the epoch wraps — both orders of magnitude beyond any grid.
const seqEpochStride = 1 << 40

// NewEngine returns an engine with the clock at zero and no processes.
func NewEngine() *Engine {
	return &Engine{seq: engineEpoch.Add(1) * seqEpochStride}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of processes that have not yet exited.
func (e *Engine) Live() int { return e.live }

// poison is the panic value park uses to unwind a process being shut
// down; the spawn wrapper recognizes and swallows it.
type poison struct{}

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
			if v := recover(); v != nil && v != (poison{}) {
				e.panicV = v
			}
			e.retire(p)
		}()
		fn(p)
	})
	return p
}

// retire takes an exiting process off the books. e.cur is cleared here
// as well as in the loop because a process that leaves by runtime.Goexit
// takes Run's caller with it, past the loop's own store.
func (e *Engine) retire(p *Proc) {
	e.live--
	e.procs[p.id] = nil
	e.cur = nil
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

// recycle returns a no-longer-referenced event to the freelist.
func (e *Engine) recycle(ev *event) {
	ev.p = nil
	e.free = append(e.free, ev)
}

// next pops the next dispatchable event, recycling canceled carcasses it
// finds at the head on the way. It returns nil when RunUntil must return:
// the queue is drained, the engine is stopped, or the earliest event lies
// past the deadline (it stays queued for a later RunUntil).
func (e *Engine) next() *event {
	if e.stopped {
		return nil
	}
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.canceled {
			e.events.pop()
			e.recycle(ev)
			continue
		}
		if ev.at > e.deadline {
			return nil
		}
		e.events.pop()
		if invariant.Enabled {
			// The heap's contract: events leave in strictly increasing
			// (at, seq) order, and never behind the clock.
			invariant.Assert(ev.at >= e.now,
				"sim: event at t=%v dispatched after clock reached t=%v", ev.at, e.now)
			invariant.Assert(ev.at > e.lastAt || (ev.at == e.lastAt && ev.seq > e.lastSeq),
				"sim: event (t=%v, seq %d) dispatched after (t=%v, seq %d)", ev.at, ev.seq, e.lastAt, e.lastSeq)
			e.lastAt, e.lastSeq = ev.at, ev.seq
		}
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

// scheduleWake arranges for p to resume at time at, canceling any
// previously pending wake.
func (e *Engine) scheduleWake(p *Proc, at Time, reason wakeReason) {
	if p.pending != nil {
		p.pending.canceled = true
	}
	p.pending = e.schedule(at, p, reason)
	p.blocked = false
}

// Run processes events until none remain or Stop is called. It returns the
// final virtual time. If processes remain blocked with no pending events
// (a simulated deadlock), Run panics with a description of the stuck
// processes. If any process panicked, Run re-panics with its value.
func (e *Engine) Run() Time {
	return e.RunUntil(MaxTime)
}

// RunUntil is like Run but stops once the clock would pass the deadline.
// Events at exactly the deadline still execute.
func (e *Engine) RunUntil(deadline Time) Time {
	e.deadline = deadline
	for {
		ev := e.popped
		e.popped = nil
		if ev == nil {
			if ev = e.next(); ev == nil {
				break
			}
		}
		e.cur = e.deliver(ev)
		e.resumes++
		e.cur.co.resume()
		e.cur = nil
		if e.panicV != nil {
			panic(e.panicV)
		}
	}
	if !e.stopped {
		if len(e.events) > 0 {
			// The next event lies beyond the deadline; leave it queued
			// for a later RunUntil call.
			e.now = deadline
			return e.now
		}
		if e.live > 0 {
			panic(fmt.Sprintf("sim: deadlock at t=%v: %d blocked process(es): %v",
				e.now, e.live, e.blockedNames()))
		}
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

// Stop makes Run return after the current event completes. Blocked
// processes are abandoned but stay suspended; call Shutdown once Run has
// returned to release them.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown terminates every process that has not yet exited: a suspended
// one is killed, which unwinds its stack from the park it sits in so its
// deferred clean-ups run, and one that never started is simply retired.
// It must be called after Run/RunUntil has returned (never from inside a
// running process), and it is idempotent: a drained engine shuts down as
// a no-op. Engines that stop early (Stop, RunUntil deadlines) would
// otherwise keep one suspended coroutine per abandoned process for the
// life of the host process. Every body has returned before Shutdown
// does.
func (e *Engine) Shutdown() {
	if e.cur != nil {
		panic("sim: Shutdown called from inside a running process")
	}
	e.stopped = true
	for _, p := range e.procs {
		if p == nil {
			continue
		}
		p.co.kill()
		if e.procs[p.id] == p {
			e.retire(p) // never started: its body, and the retire in it, never ran
		}
	}
}

// park suspends the process until its next wake event is dispatched. It
// pops the next event itself: when that event is its own (consecutive
// sleeps with no one else due) it returns without any switch; otherwise
// it leaves the event, or nil when nothing is dispatchable, for the loop
// and suspends. A kill (Shutdown) unwinds the process's stack instead of
// returning; the spawn wrapper swallows the sentinel panic.
func (p *Proc) park() wakeReason {
	e := p.eng
	ev := e.next()
	if ev != nil && ev.p == p {
		e.deliver(ev)
		return p.woke
	}
	e.popped = ev
	if !p.co.suspend() {
		panic(poison{})
	}
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

// Yield reschedules the process at the current time, letting every other
// event at this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

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
