package sim

import "testing"

// TestChanGetDrainsBufferAfterClose: Close does not discard queued
// items; readers drain them first and only then see ok=false.
func TestChanGetDrainsBufferAfterClose(t *testing.T) {
	eng := NewEngine()
	c := NewChan[int](4)
	var got []int
	var closedOK bool
	eng.Spawn("writer", func(p *Proc) {
		c.TryPut(1)
		c.TryPut(2)
		c.Close()
	})
	eng.Spawn("reader", func(p *Proc) {
		p.Sleep(10) // let the writer fill and close first
		for {
			v, ok := c.Get(p)
			if !ok {
				closedOK = true
				return
			}
			got = append(got, v)
		}
	})
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained %v, want [1 2]", got)
	}
	if !closedOK {
		t.Error("reader never observed the close")
	}
}

// TestChanGetBlockedReaderWokenByClose: a reader blocked on an empty
// channel is released by Close with ok=false.
func TestChanGetBlockedReaderWokenByClose(t *testing.T) {
	eng := NewEngine()
	c := NewChan[int](1)
	var at Time
	ok := true
	eng.Spawn("reader", func(p *Proc) {
		_, ok = c.Get(p)
		at = p.Now()
	})
	eng.Spawn("closer", func(p *Proc) {
		p.Sleep(50)
		c.Close()
	})
	eng.Run()
	if ok {
		t.Error("Get on closed empty chan returned ok=true")
	}
	if at != 50 {
		t.Errorf("reader released at t=%v, want 50", at)
	}
}

// TestChanTryPutOnClosed: TryPut must refuse (not panic) on a closed
// channel, even when buffer space remains — the open-loop arrival
// process relies on this to shed load during shutdown races.
func TestChanTryPutOnClosed(t *testing.T) {
	c := NewChan[int](4)
	c.Close()
	if c.TryPut(7) {
		t.Error("TryPut succeeded on a closed chan")
	}
	if c.Len() != 0 {
		t.Errorf("closed chan holds %d items after TryPut", c.Len())
	}
}

// TestWaitTimeoutTieAtDeadline: when a Signal lands at the very instant
// the timeout fires, (at, seq) event order decides. Scheduled-first
// wins: a timeout armed before the signaler's wake event beats the
// signal; a signal dispatched first cancels the pending timeout. Both
// outcomes resume the waiter at exactly t=deadline.
func TestWaitTimeoutTieAtDeadline(t *testing.T) {
	run := func(waiterFirst bool) (signaled bool, at Time, ghosts int) {
		eng := NewEngine()
		q := new(WaitQueue)
		waiter := func(p *Proc) {
			signaled = q.WaitTimeout(p, 100)
			at = p.Now()
		}
		signaler := func(p *Proc) {
			p.Sleep(100) // exactly the deadline
			q.Signal(1)
		}
		if waiterFirst {
			eng.Spawn("waiter", waiter)
			eng.Spawn("signaler", signaler)
		} else {
			eng.Spawn("signaler", signaler)
			eng.Spawn("waiter", waiter)
		}
		eng.Run()
		return signaled, at, q.Len()
	}

	// Waiter spawns first: its timeout event carries the lower seq and
	// dispatches ahead of the signaler's wake, so the timeout fires and
	// the same-instant signal finds the queue already empty.
	signaled, at, ghosts := run(true)
	if signaled {
		t.Error("timeout armed first: WaitTimeout should report timeout at the tie")
	}
	if at != 100 {
		t.Errorf("waiter resumed at t=%v, want exactly 100", at)
	}
	if ghosts != 0 {
		t.Errorf("timed-out waiter still queued (%d waiters)", ghosts)
	}

	// Signaler spawns first: its wake dispatches ahead of the timeout,
	// and signaling cancels the pending timeout event.
	signaled, at, ghosts = run(false)
	if !signaled {
		t.Error("signal dispatched first: WaitTimeout should report the signal at the tie")
	}
	if at != 100 {
		t.Errorf("waiter resumed at t=%v, want exactly 100", at)
	}
	if ghosts != 0 {
		t.Errorf("wait queue still holds %d waiters", ghosts)
	}
}

// TestWaitTimeoutExpiryExactlyAtDeadline: with no signal, the timeout
// fires at exactly now+d, not a tick later, and the waiter is removed
// from the queue so a later Signal cannot release a ghost.
func TestWaitTimeoutExpiryExactlyAtDeadline(t *testing.T) {
	eng := NewEngine()
	q := new(WaitQueue)
	var signaled bool
	var at Time
	eng.Spawn("waiter", func(p *Proc) {
		signaled = q.WaitTimeout(p, 100)
		at = p.Now()
	})
	eng.Run()
	if signaled {
		t.Error("WaitTimeout reported a signal; none was sent")
	}
	if at != 100 {
		t.Errorf("timeout fired at t=%v, want exactly 100", at)
	}
	if q.Len() != 0 {
		t.Errorf("timed-out waiter still queued (%d waiters)", q.Len())
	}
	if released := q.Signal(1); released != 0 {
		t.Errorf("Signal released %d ghost waiter(s)", released)
	}
}
