package memnode

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withheld is a client with a negotiated link to a server that takes
// requests and answers none, over TCP (a fake that swallows them) or the
// file link (a real server whose region table the test holds locked, so
// that its frame loop stops inside the first request; the ops address a
// region no file was attached for). release lets the server go; it is
// safe to call once the client is closed.
func withheld(t *testing.T, shm bool, opts Options) (c *Client, release func()) {
	t.Helper()
	var srv *Server
	addr, want := "", "shm"
	if shm {
		srv = newShmServer(t, 64<<20)
		t.Cleanup(func() { srv.Close() })
		addr = srv.Addr()
	} else {
		addr, _ = stallListener(t)
		opts.Transport, want = TransportTCP, "tcp-v2"
	}
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.getStream(); err != nil {
		t.Fatal(err)
	}
	if got := c.TransportKind(); got != want {
		t.Fatalf("TransportKind = %q, want %q", got, want)
	}
	if !shm {
		return c, func() {}
	}
	srv.mu.Lock() // once the link is up: accepting a connection takes the lock too
	var once sync.Once
	release = func() { once.Do(srv.mu.Unlock) }
	t.Cleanup(release) // runs before the server's Close, which takes the lock
	return c, release
}

// hooks counts the runs of each started READV's hook and keeps what it
// was told.
type hooks struct {
	runs []atomic.Int32
	errs []error
	done chan int
}

func newHooks(n int) *hooks {
	return &hooks{runs: make([]atomic.Int32, n), errs: make([]error, n), done: make(chan int, 2*n)}
}

func (h *hooks) hook(i int) func(error) {
	return func(err error) {
		if h.runs[i].Add(1) == 1 {
			h.errs[i] = err
		}
		h.done <- i
	}
}

// wait blocks until n hooks have run.
func (h *hooks) wait(t *testing.T, n int, within time.Duration) {
	t.Helper()
	timeout := time.After(within)
	for ; n > 0; n-- {
		select {
		case <-h.done:
		case <-timeout:
			t.Fatalf("%d hooks still to run after %v", n, within)
		}
	}
}

// once fails the test unless every hook has run exactly once.
func (h *hooks) once(t *testing.T) {
	t.Helper()
	for i := range h.runs {
		if n := h.runs[i].Load(); n != 1 {
			t.Errorf("hook %d ran %d times", i, n)
		}
	}
}

// TestAsyncOpsSpawnNothing: an asynchronous op on a healthy link is
// started by its caller and completed by the link, and no goroutine
// stands between the two — 256 futures and 256 started READVs in flight
// leave the goroutine count where it was. Close then completes every one
// of them, on its own goroutine: each future resolves to ErrClosed,
// however often and however it is asked, and each hook has run exactly
// once when Close returns.
func TestAsyncOpsSpawnNothing(t *testing.T) {
	for _, shm := range []bool{false, true} {
		if shm && !ShmSupported {
			continue
		}
		opts := fastOpts()
		opts.Window = 1024
		opts.IOTimeout = 30 * time.Second // nothing here may pass by timing out
		opts.MaxAttempts = 100
		c, release := withheld(t, shm, opts)
		kind := c.TransportKind()

		const n = 256
		base := runtime.NumGoroutine()
		pend := make([]*Pending, n)
		for i := range pend {
			pend[i] = c.ReadAsync(1, int64(i)*4096, 4096)
		}
		hk := newHooks(n)
		page := SplitPages(make([]byte, 4096), 4096)
		for i := 0; i < n; i++ {
			// The batches share their page: nothing is ever read into it.
			c.StartReadVInto(1, []int64{int64(i) * 4096}, page, hk.hook(i))
		}
		// Not above: what the transport before this one left winding down
		// may have gone meanwhile.
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines with %d ops in flight, %d before", kind, got, 2*n, base)
		}
		early := pend[0].Done() // asked before completion
		select {
		case <-early:
			t.Fatalf("%s: a read resolved against a server that answers nothing", kind)
		default:
		}

		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		hk.once(t) // no waiting: Close ran them
		for i, err := range hk.errs {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("%s: hook %d got %v, want ErrClosed", kind, i, err)
			}
		}
		for i, p := range pend {
			_, err1 := p.Wait()
			_, err2 := p.Wait()
			if !errors.Is(err1, ErrClosed) || err1 != err2 {
				t.Fatalf("%s: future %d resolved to %v, then %v; want ErrClosed twice", kind, i, err1, err2)
			}
		}
		for _, done := range []<-chan struct{}{early, pend[1].Done()} { // asked before, and after
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: Done did not fire on a resolved future", kind)
			}
		}
		release()
	}
}

// TestAsyncOpsSurviveRestart: the connection dies under futures and
// started READVs that are all still in flight, and the node comes back
// on the same address without its regions (and without the file link it
// offered before). Every op completes all the same — reconnect, REGISTER
// replay, the remaining attempts run by a goroutine each — and the
// recovery shows in the counters.
func TestAsyncOpsSurviveRestart(t *testing.T) {
	for _, shm := range []bool{false, true} {
		if shm && !ShmSupported {
			continue
		}
		srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: shm})
		if err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		c, err := DialOptions(addr, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		kind := c.TransportKind()
		if want := map[bool]string{false: "tcp-v2", true: "shm"}[shm]; kind != want {
			t.Fatalf("TransportKind = %q, want %q", kind, want)
		}
		if shm {
			detach(t, c, id) // an attached region's ops never wait for the server
		}

		// With the region table locked the server stops inside the first
		// request: nothing below is answered before the connection dies.
		srv.mu.Lock()
		const n = 32
		page := stampedPages(1)
		reads, writes := make([]*Pending, n), make([]<-chan error, n)
		hk := newHooks(n)
		bufs := make([][]byte, n)
		for i := 0; i < n; i++ {
			writes[i] = writeAsync(c, id, int64(i)*4096, page)
			reads[i] = c.ReadAsync(id, int64(n+i)*4096, 4096)
			bufs[i] = make([]byte, 2*4096)
			c.StartReadVInto(id, []int64{int64(2*n+i) * 4096, 0}, SplitPages(bufs[i], 4096), hk.hook(i))
		}
		// Kill: stop listening, then hang up on every connection, then let
		// the handlers find that out.
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		for !srv.closed.Load() {
			runtime.Gosched()
		}
		for conn := range srv.conns {
			conn.Close()
		}
		srv.mu.Unlock()
		<-closed

		var srv2 *Server
		for deadline := time.Now().Add(5 * time.Second); ; {
			if srv2, err = NewServer(addr, 64<<20); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("could not restart the server on %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}

		for i := 0; i < n; i++ {
			if err := <-writes[i]; err != nil {
				t.Fatalf("%s: write %d across the restart: %v", kind, i, err)
			}
			body, err := reads[i].Wait()
			if err != nil || len(body) != 4096 {
				t.Fatalf("%s: read %d across the restart: %d bytes, %v", kind, i, len(body), err)
			}
			PutBuf(body)
		}
		hk.wait(t, n, 30*time.Second)
		hk.once(t)
		for i, err := range hk.errs {
			if err != nil {
				t.Fatalf("%s: started READV %d across the restart: %v", kind, i, err)
			}
		}
		m := c.Metrics()
		if m.Retries == 0 || m.Reconnects == 0 || m.RegionReplays == 0 {
			t.Errorf("%s: retries=%d reconnects=%d region replays=%d; want all three", kind, m.Retries, m.Reconnects, m.RegionReplays)
		}
		if m.Read.Ops != n || m.Write.Ops != n || m.ReadV.Ops != n {
			t.Errorf("%s: counted %d reads, %d writes, %d READVs; want %d of each", kind, m.Read.Ops, m.Write.Ops, m.ReadV.Ops, n)
		}
		if got := c.TransportKind(); got != "tcp-v2" {
			t.Errorf("%s: TransportKind after the restart = %q, want tcp-v2", kind, got)
		}
		c.Close()
		srv2.Close()
	}
}

// TestStartedReadVTimesOut: nobody waits for a started READV, so nobody
// ever parks on it. A started call carries a deadline from the start:
// against a wedged shm server and against a TCP peer that swallows
// requests the op fails within twice the IO timeout, and what it was lent
// is the caller's again.
func TestStartedReadVTimesOut(t *testing.T) {
	for _, shm := range []bool{false, true} {
		if shm && !ShmSupported {
			continue
		}
		opts := fastOpts()
		opts.IOTimeout = 300 * time.Millisecond
		opts.MaxAttempts = 1
		c, release := withheld(t, shm, opts)
		kind := c.TransportKind()

		hk := newHooks(1)
		buf := make([]byte, 2*4096)
		start := time.Now()
		c.StartReadVInto(1, []int64{0, 4096}, SplitPages(buf, 4096), hk.hook(0))
		hk.wait(t, 1, 10*time.Second)
		took := time.Since(start)
		if hk.errs[0] == nil || IsTerminal(hk.errs[0]) {
			t.Errorf("%s: a READV nobody answered ended in %v", kind, hk.errs[0])
		}
		// Half a timeout of grace for a loaded box.
		if limit := 2*opts.IOTimeout + opts.IOTimeout/2; took > limit {
			t.Errorf("%s: the READV failed after %v, want within %v", kind, took, limit)
		}
		var ne net.Error
		if m := c.Metrics(); m.Timeouts == 0 || !errors.As(hk.errs[0], &ne) || !ne.Timeout() {
			t.Errorf("%s: %d timeouts counted, the READV ended in %v; want a timeout, counted", kind, m.Timeouts, hk.errs[0])
		}
		for i := range buf {
			buf[i] = 0x55 // under -race: the dead link must be done with these
		}
		hk.once(t)
		c.Close()
		release()
	}
}
