// Shared-memory transport: the wait primitive.
//
// Every shm wait site — a submitter polling for its completion, the
// client completer and the server loop before they park on the doorbell
// socket, and the two ring-full backpressure loops — waits for the
// process on the other side of the ring. Yielding with runtime.Gosched
// before parking pays only when that process runs while we yield: it
// has a core of its own, or it is a goroutine of this process, or the
// kernel gives it the CPU we yield. Nothing on the wait path can tell
// these cases apart beforehand (an affinity mask says where a thread
// may run, not whether the peer is running there now), so shmWait
// decides from what the yielding achieved — the adaptive-mutex rule:
//
//   - The budget of a wait is all or nothing: the site's full limit, or
//     zero (park at once). Waits end after a handful of yields when the
//     peer is polling too, or a peer wake-up later when it was asleep;
//     a budget in between bridges neither.
//   - A hit — the wait was satisfied by yielding — earns one credit, up
//     to shmCreditMax, and a site with credit spins its full limit. So
//     one hit restores the full budget at once.
//   - A wait that spins and ends in a park all the same halves the
//     credit. Eight hits in a row buy four such waits in a row (a peer
//     that lost its core for a moment, and the wake-ups that follow,
//     while the stream keeps polling); a lone hit buys none, so the
//     lucky hits a shared CPU produces when the kernel preempts the
//     waiter cost one fruitless spin each. Waiters that time out
//     together — N submitters behind one stalled server — have learnt
//     one thing: the parks of waits that overlap are one round, and a
//     round halves the credit once.
//   - A wait that was already satisfied at the first look, before any
//     yield, says nothing about yielding and changes nothing. (At depth
//     N one server burst satisfies N pollers; only the one that waited
//     for it has learnt something.)
//   - At zero credit one wait in shmProbeEvery is a probe: a full-limit
//     spin, which is how the stream finds out that the peer got a core
//     again. Probes cost limit/shmProbeEvery yields per parked wait.
//
// The one-P rule: in a process with one P, runtime.Gosched can only run
// this process's own goroutines, never the peer. A runtime started on
// one CPU sizes itself to one P, so that is the shared-CPU case. There
// a site still not ready after the Go yield also yields to the OS
// (shmOSYield, sched_yield), which hands the CPU to the peer, and it
// re-checks. One iteration is one yield in ShmSpinYields, whichever
// kinds it made. With more than one P the loop yields to Go only: an
// OS yield there is a syscall per iteration that cost a third of
// depth-1 throughput on two CPUs.
//
// No clock is read, and a hit at full credit — the steady state of a
// polling stream — executes no atomic read-modify-write.
package memnode

import (
	"runtime"
	"sync/atomic" //magevet:ok host-side wait-budget state shared by submitter goroutines, not simulation state
)

// shmInlinePolls is the full yield budget of a submitter polling for
// its completion, after which it parks on its call and leaves draining
// to the completer. It is long enough to outlast the wake-up of a
// server that had just parked on another core.
const shmInlinePolls = 256

// shmSpinYields is the full yield budget of the client completer and of
// the server loop before they park on a doorbell read.
const shmSpinYields = 64

// shmProbeEvery spaces the probes of a wait site without credit: one
// wait in shmProbeEvery spins the full limit, the others park at once.
const shmProbeEvery = 64

// shmCreditMax bounds the credit hits can earn: log2(shmCreditMax)+1
// waits in a row may then end in a park before the budget drops to zero.
const shmCreditMax = 8

// shmBudget is the pure state machine behind shmWait. A wait begins
// (begin decides whether it spins) and ends in a hit or in a park.
type shmBudget struct {
	credit uint32 // earned one per hit, halved per round of parks; above zero the site spins
	quiet  uint32 // at zero credit: waits parked at once since the last probe
	round  uint32 // counts the halvings, so that parks overlapping one another count once
}

// begin is the state after a wait has started, and whether that wait
// spins the full limit: the site has credit, or this wait is the probe.
// Without credit it is begin that counts the wait, so that of several
// waits starting together exactly one takes the probe.
func (b shmBudget) begin() (shmBudget, bool) {
	switch {
	case b.credit > 0:
		return b, true
	case b.quiet == shmProbeEvery-1:
		b.quiet = 0
		return b, true
	}
	b.quiet++
	return b, false
}

// afterHit is the state after a wait that yielding satisfied.
func (b shmBudget) afterHit() shmBudget {
	if b.credit < shmCreditMax {
		b.credit++
	}
	b.quiet = 0
	return b
}

// afterPark is the state after a wait that spun and ended in a park
// all the same; began is the state that wait started from. Waiters that
// time out together — N submitters behind one stalled server — have
// learnt one thing, not N: only the first of a round halves the credit.
func (b shmBudget) afterPark(began shmBudget) shmBudget {
	if b.round == began.round {
		b.credit /= 2
		b.round++
	}
	return b
}

func (b shmBudget) pack() uint64 {
	return uint64(b.round)<<32 | uint64(b.quiet)<<8 | uint64(b.credit)
}

func unpackShmBudget(v uint64) shmBudget {
	return shmBudget{credit: uint32(v & 0xff), quiet: uint32(v >> 8 & 0xff), round: uint32(v >> 32)}
}

// shmWaitStats counts what one side's waits cost, which is how the
// regime a stream runs in is seen from outside. All three are bumped
// on slow paths only: next to a park or a socket write.
type shmWaitStats struct {
	parks      atomic.Uint64 // waits that ended in a park (or a backpressure sleep)
	doorbells  atomic.Uint64 // wake-up bytes written to the peer's doorbell socket
	spinYields atomic.Uint64 // yields spent in waits that ended in a park anyway
}

// parked records a wait that ended in a park after n fruitless yields.
// A nil receiver (a bare ring in the fuzz harness) counts nothing.
func (s *shmWaitStats) parked(n uint32) {
	if s == nil {
		return
	}
	s.parks.Add(1)
	if n > 0 {
		s.spinYields.Add(uint64(n))
	}
}

// shmPeerYield is the OS yield of a one-P site; a variable so that a
// test can count its calls.
var shmPeerYield = shmOSYield

// shmWait is one wait site's self-tuning yield budget. Safe for
// concurrent waiters (the submitters of a stream share one): the state
// is one word, every transition is applied to its current value by
// compare-and-swap, and a hit that loses its race merely forgoes one
// credit. The zero value parks at once and counts nothing.
type shmWait struct {
	limit uint32 // the full budget; zero holds the site at park-at-once
	oneP  bool   // the process had one P at init: a Go yield cannot reach the peer
	state atomic.Uint64
	stats *shmWaitStats
}

// init arms the site with a full budget of limit yields and full credit:
// a new stream polls until its waits say otherwise.
func (w *shmWait) init(limit uint32, stats *shmWaitStats) {
	w.limit, w.stats = limit, stats
	w.oneP = runtime.GOMAXPROCS(0) == 1
	w.state.Store(shmBudget{credit: shmCreditMax}.pack())
}

// update applies a transition to the current state.
func (w *shmWait) update(f func(shmBudget) shmBudget) {
	for {
		v := w.state.Load()
		next := f(unpackShmBudget(v)).pack()
		if next == v || w.state.CompareAndSwap(v, next) {
			return
		}
	}
}

// spin yields until ready reports true or the budget is spent, and
// reports which. On false the caller parks (after whatever its doorbell
// protocol requires); the park is already accounted for here.
func (w *shmWait) spin(ready func() bool) bool {
	if ready() {
		return true
	}
	// With credit begin changes nothing and update writes nothing; without,
	// the wait is about to park or to spend a whole probe, and a
	// read-modify-write costs nothing next to either.
	var began shmBudget
	var spins bool
	w.update(func(b shmBudget) shmBudget {
		began = b
		b, spins = b.begin()
		return b
	})
	if !spins || w.limit == 0 {
		w.stats.parked(0)
		return false
	}
	for i := uint32(0); i < w.limit; i++ {
		runtime.Gosched()
		ok := ready()
		if !ok && w.oneP {
			shmPeerYield()
			ok = ready()
		}
		if ok {
			// One attempt: a hit that loses the race forgoes its credit,
			// and a hit at full credit writes nothing.
			v := w.state.Load()
			if next := unpackShmBudget(v).afterHit().pack(); next != v {
				w.state.CompareAndSwap(v, next)
			}
			return true
		}
	}
	w.update(func(b shmBudget) shmBudget { return b.afterPark(began) })
	w.stats.parked(w.limit)
	return false
}
