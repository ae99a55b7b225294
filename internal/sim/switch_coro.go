//go:build go1.23 && !simchan && !race

package sim

import "iter"

// coro is the switch primitive under the engine: one process body that
// its owner runs a stretch at a time. resume and suspend are the two
// halves of a hand-off and nothing else ever runs the body, so the Go
// scheduler takes no part in it: iter.Pull switches on the caller's
// thread, with no run queue, no timer check and no wake-up in between.
// This file and its channel twin, switch_chan.go, are the only places
// that know how a switch is made; the engine has one loop over either.
//
// A -race build compiles the twin: go1.24's runtime ends a coroutine's
// goroutine without releasing its race-detector context (coroexit goes
// to gdestroy, never racegoend), about 11 KB per finished process, and
// internal/core's suite under -race peaked at 3.6 GiB against 0.3.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// init binds body, which does not start until the first resume.
func (c *coro) init(body func()) {
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		body()
	})
}

// resume runs the body until it next suspends or returns. A
// runtime.Goexit inside the body ends resume's caller as well.
func (c *coro) resume() { c.next() }

// suspend is called by the body, and returns when it is resumed.
func (c *coro) suspend() { c.yield(struct{}{}) }
