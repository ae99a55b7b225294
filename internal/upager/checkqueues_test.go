//go:build magecheck

package upager

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// queueTwice queues the frame page pg is resident in a second time on
// main, under p.mu: the corruption the queue invariant is there to
// catch. It returns the frame.
func queueTwice(p *Pager, pg uint64) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.pages[pg].frame
	p.sel.main.push(f)
	return f
}

// panicOf runs f and returns what it panicked with, or "".
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// closeWithin fails t unless p.Close returns within d.
func closeWithin(t *testing.T, p *Pager, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close did not return within %v of the failed check", d)
	}
}

// TestFailedQueueCheckReleasesClose: when the magecheck build's queue
// invariant fails, its panic reaches the caller with the frame named and
// nothing held that a deferred Close waits on: not p.mu, after a demand
// fault's install, and not the fill either, after a FaultAhead whose
// read completed inline and whose install therefore failed on the
// caller's own goroutine.
func TestFailedQueueCheckReleasesClose(t *testing.T) {
	t.Run("demand fault", func(t *testing.T) {
		p, err := New(newFakeBacking(), 64, 8, Options{noEvictor: true})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := p.Pin(0, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
		f := queueTwice(p, 0)
		msg := panicOf(func() { p.Pin(1, false) })
		if !strings.Contains(msg, fmt.Sprintf("invariant: upager: frame %d ", f)) {
			t.Errorf("the fault panicked with %q; want the invariant naming frame %d", msg, f)
		}
		closeWithin(t, p, time.Second)
	})
	t.Run("inline FaultAhead", func(t *testing.T) {
		sf := &startFake{fakeBacking: newFakeBacking(), t: t, inline: true}
		p, err := New(sf, 64, 8, Options{noEvictor: true})
		if err != nil {
			t.Fatal(err)
		}
		sf.pager = p
		stampBacking(sf.fakeBacking, 64)
		markStored(p, 64)
		fr, err := p.Pin(0, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
		f := queueTwice(p, 0)
		msg := panicOf(func() { p.FaultAhead(pageRange(1, 2)) })
		if !strings.Contains(msg, fmt.Sprintf("invariant: upager: frame %d ", f)) {
			t.Errorf("FaultAhead panicked with %q; want the invariant naming frame %d", msg, f)
		}
		if n := sf.started.Load(); n != 1 {
			t.Errorf("%d reads started; want the one that failed the check inline", n)
		}
		closeWithin(t, p, time.Second)
	})
}
