//go:build !go1.23 || simchan || race

package sim

import "runtime"

// coro is switch_coro.go's primitive where a coroutine will not do: a
// toolchain older than Go 1.23 (no package iter), -race (a finished
// coroutine leaks its detector context, see that file), and -tags simchan,
// which lets CI run the goldens over it. The body is a goroutine parked on
// a channel, a hand-off a send and a receive each way: same contract, same
// loop above it, two trips through the Go scheduler per event.
type coro struct {
	body    func()
	wake    chan struct{} // owner to body: resume
	back    chan struct{} // body to owner: suspended, or gone
	started bool
	goexit  bool // the body left by runtime.Goexit, not by returning
}

func (c *coro) init(body func()) {
	c.body, c.wake, c.back = body, make(chan struct{}), make(chan struct{})
}

func (c *coro) resume() {
	if c.started {
		c.wake <- struct{}{}
	} else {
		c.started = true
		go func() { //magevet:ok coroutine hand-off: the body runs only while its owner waits in resume
			returned := false
			defer func() { c.goexit = !returned; c.back <- struct{}{} }()
			c.body()
			returned = true
		}()
	}
	if <-c.back; c.goexit {
		runtime.Goexit()
	}
}

func (c *coro) suspend() {
	c.back <- struct{}{}
	<-c.wake
}
