package upager

import (
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/invariant"
	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// startFake is a fakeBacking that can start a batched read, as
// memnode.Client can: the read is counted when it is started and runs —
// on the test's goroutine, when the test says so — through the fake's
// ReadVInto, gates and failure injectors included.
type startFake struct {
	*fakeBacking
	t       *testing.T
	pager   *Pager
	started atomic.Uint64
	inline  bool        // end the read inside StartReadVInto, as a refusal on the spot does
	wire    chan func() // started reads, for the test to run
}

func (s *startFake) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	s.started.Add(1)
	// Only the test's goroutine is running: a lock that is held is held by
	// the caller.
	if !s.pager.mu.TryLock() {
		s.t.Error("the batched read was started with p.mu held")
	} else {
		s.pager.mu.Unlock()
	}
	run := func() { done(s.ReadVInto(handle, offsets, dst)) }
	if s.inline {
		run()
		return
	}
	s.wire <- run
}

// TestFaultAheadStartsOnCaller: with a backing that can start a read,
// FaultAhead has sent the batch when it returns — no goroutine of the
// pager's does it later — and what ends the batch is the read's
// completion hook, which takes p.mu itself: it must be free when the
// read is started, also when the read ends before StartReadVInto
// returns. Pins that arrive while the batch is on the wire coalesce on
// its latch and see the bytes the completion installed.
func TestFaultAheadStartsOnCaller(t *testing.T) {
	sf := &startFake{fakeBacking: newFakeBacking(), t: t, wire: make(chan func(), 4)}
	p, err := New(sf, 64, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sf.pager = p
	stampBacking(sf.fakeBacking, 64)
	markStored(p, 64)

	p.FaultAhead(pageRange(0, 8))
	if n, rv := sf.started.Load(), sf.readvs.Load(); n != 1 || rv != 0 {
		t.Fatalf("FaultAhead returned with %d reads started and %d run; want 1 and 0", n, rv)
	}
	const pinners = 16
	var wg sync.WaitGroup
	for w := 0; w < pinners; w++ {
		wg.Add(1)
		go func(pg uint64) {
			defer wg.Done()
			fr, err := p.Pin(pg, false)
			if err != nil {
				t.Error(err)
				return
			}
			checkPage(t, fr.Data, pg)
			fr.Unpin()
		}(uint64(w % 8))
	}
	waitFor(t, "every pin to wait on the batch's latch", func() bool { return p.Stats().Coalesced == pinners })
	if s := p.Stats(); s.Hits != 0 || s.FreeFrames != 32-8 {
		t.Errorf("%d hits and %d free frames with the batch in flight; want 0 and 24", s.Hits, s.FreeFrames)
	}
	(<-sf.wire)() // the completion, on this goroutine
	wg.Wait()
	s := p.Stats()
	if s.Faults != 8 || s.FaultsAhead != 8 || s.Hits != pinners || sf.reads.Load() != 0 {
		t.Errorf("faults=%d ahead=%d hits=%d single reads=%d; want 8, 8, %d, 0", s.Faults, s.FaultsAhead, s.Hits, sf.reads.Load(), pinners)
	}

	// A read that ends inside StartReadVInto: installed when FaultAhead
	// returns, and failed ones aborted, with every frame back.
	sf.inline = true
	p.FaultAhead(pageRange(8, 8))
	fr, err := p.Pin(8, false)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, fr.Data, 8)
	fr.Unpin()
	if s := p.Stats(); s.Hits != pinners+1 || s.Coalesced != pinners {
		t.Errorf("a batch that ended on the spot left its page to be waited for: %+v", s)
	}
	sf.failRead.Store(true)
	p.FaultAhead(pageRange(16, 8))
	if free := p.Stats().FreeFrames; free != 32-16 {
		t.Errorf("%d frames free after a batch refused on the spot; want 16", free)
	}
	sf.failRead.Store(false)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n, rv := sf.started.Load(), sf.readvs.Load(); n != 3 || rv != 3 {
		t.Errorf("%d reads started, %d run; want 3 and 3", n, rv)
	}
}

// wireProxy stands between a client and a memnode and makes the wire
// long, or cuts it without hanging up: what the server sends is held
// back by delay, and while hole is set only the next holeAfter bytes of
// it get through, on any connection, the rest vanishing — the peer is
// there and says nothing.
type wireProxy struct {
	ln        net.Listener
	delay     atomic.Int64 // ns
	hole      atomic.Bool
	holeAfter atomic.Int64
}

func newWireProxy(t *testing.T, upstream string) *wireProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &wireProxy{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			go p.forward(cli, upstream)
		}
	}()
	return p
}

func (p *wireProxy) forward(cli net.Conn, upstream string) {
	defer cli.Close()
	up, err := net.Dial("tcp", upstream)
	if err != nil {
		return
	}
	defer up.Close()
	go io.Copy(up, cli) // ends when either side is closed
	buf := make([]byte, 64<<10)
	for {
		n, err := up.Read(buf)
		if d := p.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if p.hole.Load() {
			n = int(min(int64(n), p.holeAfter.Load()))
			p.holeAfter.Add(int64(-n))
		}
		if n > 0 {
			if _, werr := cli.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// proxiedClient is a TCP client of a fresh in-process memnode, through a
// wireProxy.
func proxiedClient(t *testing.T, opts memnode.Options) (*memnode.Client, *wireProxy) {
	t.Helper()
	srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy := newWireProxy(t, srv.Addr())
	opts.Transport = memnode.TransportTCP
	c, err := memnode.DialOptions(proxy.ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, proxy
}

// Both far stores are far as they are: New wraps neither.
var (
	_ far = (*memnode.Client)(nil)
	_ far = (*memcluster.Cluster)(nil)
)

// scriptedReads is a memnode client whose demand-path reads are on
// record: every destination list ReadVInto is handed, and how many reads
// StartReadVInto started.
type scriptedReads struct {
	*memnode.Client

	mu     sync.Mutex
	intos  [][][]byte
	starts int
}

func (s *scriptedReads) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	s.mu.Lock()
	s.intos = append(s.intos, dst)
	s.mu.Unlock()
	return s.Client.ReadVInto(handle, offsets, dst)
}

func (s *scriptedReads) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	s.mu.Lock()
	s.starts++
	s.mu.Unlock()
	s.Client.StartReadVInto(handle, offsets, dst, done)
}

func (s *scriptedReads) record() (intos [][][]byte, starts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.intos), s.starts
}

// TestDemandFaultLandsInFrame: a demand fault reads its page straight
// into the frame it holds — one ReadVInto whose one destination is the
// frame's bytes in the arena — and starts no read, whether it got a free
// frame with its claim or found the pool dry and waited for one.
func TestDemandFaultLandsInFrame(t *testing.T) {
	srv, err := memnode.NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memnode.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sr := &scriptedReads{Client: c}
	const frames = 4
	p, err := New(sr, 64, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	markStored(p, 64)

	var held []Frame
	for pg := uint64(0); pg < frames; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fr)
		intos, _ := sr.record()
		if len(intos) != int(pg)+1 {
			t.Fatalf("fault %d made %d reads into frames so far", pg, len(intos))
		}
		if dst := intos[pg]; len(dst) != 1 || len(dst[0]) != len(fr.Data) || &dst[0][0] != &fr.Data[0] {
			t.Errorf("fault %d read into %d buffers, not its frame alone", pg, len(dst))
		}
	}
	if _, starts := sr.record(); starts != 0 {
		t.Errorf("faults that had a free frame started %d reads", starts)
	}

	// Every frame pinned: the pool is dry until one is let go.
	type pinned struct {
		data *byte
		err  error
	}
	faulted := make(chan pinned, 1)
	go func() {
		fr, err := p.Pin(10, false)
		if err != nil {
			faulted <- pinned{nil, err}
			return
		}
		faulted <- pinned{&fr.Data[0], nil}
		fr.Unpin()
	}()
	waitFor(t, "the fault to wait for a frame", func() bool { return p.Stats().FrameWaits == 1 })
	held[0].Unpin()
	r := <-faulted
	if r.err != nil {
		t.Fatal(r.err)
	}
	intos, starts := sr.record()
	if waits := p.Stats().FrameWaits; waits != 1 || starts != 0 || len(intos) != frames+1 {
		t.Fatalf("the fault into a dry pool waited %d times, started %d reads and made %d into frames; want 1, 0 and 1", waits, starts, len(intos)-frames)
	}
	if dst := intos[frames]; len(dst) != 1 || len(dst[0]) != PageBytes || &dst[0][0] != r.data {
		t.Errorf("the fault into a dry pool read into %d buffers, not the frame it waited for alone", len(dst))
	}
	for _, fr := range held[1:] {
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDryPoolFaultAllocatesNothing: a fault that finds the pool dry
// waits for its frame and reads into it as any other fault does, so it
// allocates nothing — over a file-link client, and over a TCP client
// with the in-process server's share. The pager has no evictor and every
// page is stored and clean: all frames but one are pinned, and each
// fault, of the page the last one evicted, runs the evictor's step
// itself to drop the one unpinned page.
func TestDryPoolFaultAllocatesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the magecheck build's pool check allocates on every install")
	}
	for name, transport := range map[string]int{"shm": memnode.TransportShm, "tcp": memnode.TransportTCP} {
		t.Run(name, func(t *testing.T) {
			if transport == memnode.TransportShm && !memnode.ShmSupported {
				t.Skip("no file link on this platform")
			}
			srv, err := memnode.NewServerOptions("127.0.0.1:0", 16<<20, memnode.ServerOptions{EnableShm: transport == memnode.TransportShm})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := memnode.DialOptions(srv.Addr(), memnode.Options{Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const frames = 4
			p, err := New(c, frames+1, frames, Options{noEvictor: true})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			markStored(p, frames+1)
			for pg := range uint64(frames) {
				fr, err := p.Pin(pg, false)
				if err != nil {
					t.Fatal(err)
				}
				if pg < frames-1 {
					defer fr.Unpin()
				} else {
					fr.Unpin()
				}
			}
			absent := uint64(frames) // then the page its fault evicted, frames-1, and so on
			fault := func() {
				fr, err := p.Pin(absent, false)
				if err != nil {
					t.Fatal(err)
				}
				fr.Unpin()
				absent = 2*frames - 1 - absent
			}
			before := p.Stats()
			const runs = 200
			allocs := testing.AllocsPerRun(runs, fault)
			if waits := p.Stats().FrameWaits - before.FrameWaits; waits != runs+1 {
				t.Errorf("%d of %d faults waited for a frame", waits, runs+1)
			}
			if allocs != 0 {
				t.Errorf("a fault into a dry pool allocates %v times", allocs)
			}
		})
	}
}

// TestFaultAheadTimesOutOverRealClient is TestFaultAheadReadVFailure
// with nothing faked: the batch's READV goes out over a real client,
// the peer goes silent a page and a half into the response, and nobody
// waits on the call — it is the deadline it was started with that fails
// it. The pages return to absent, the Pins that waited on them surface
// their own errors, every frame comes back — half-written — and what a
// page shows when they are reused is what its own fault read.
func TestFaultAheadTimesOutOverRealClient(t *testing.T) {
	const frames = 16
	timeout := 150 * time.Millisecond
	c, proxy := proxiedClient(t, memnode.Options{
		IOTimeout: timeout, MaxAttempts: 1,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	p, err := New(c, 64, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	for pg := uint64(0); pg < 64; pg++ {
		for i := range page {
			page[i] = 0xA0 // so that half a response shows in a frame
		}
		stampPage(page, pg)
		if err := c.Write(p.handle, int64(pg)*4096, page); err != nil {
			t.Fatal(err)
		}
	}
	markStored(p, 64)

	proxy.holeAfter.Store(17 + 4096 + 2048) // the response header, a page and a half
	proxy.hole.Store(true)
	start := time.Now()
	p.FaultAhead(pageRange(8, 8))
	const pinners = 4
	errs := make(chan error, pinners)
	for pg := uint64(8); pg < 8+pinners; pg++ {
		go func(pg uint64) {
			fr, err := p.Pin(pg, false)
			if err == nil {
				fr.Unpin()
			}
			errs <- err
		}(pg)
	}
	// Page 15 is in the batch and no Pin is after it.
	waitFor(t, "the batch to fail", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.pages[15].state == pageAbsent
	})
	if took := time.Since(start); took > 2*timeout+timeout/2 {
		t.Errorf("the batch failed after %v; want within twice the IO timeout of %v", took, timeout)
	}
	for i := 0; i < pinners; i++ {
		if err := <-errs; err == nil {
			t.Error("a pin succeeded against a silent peer")
		}
	}
	if s := p.Stats(); s.FreeFrames != frames || s.Coalesced < pinners {
		t.Errorf("%d of %d frames free, %d pins coalesced; want all, and every pin", s.FreeFrames, frames, s.Coalesced)
	}

	// The peer speaks again. Every frame is reused, and under -race a
	// reader of the dead stream still scattering into one is convicted.
	proxy.hole.Store(false)
	p.FaultAhead(pageRange(16, frames))
	for pg := uint64(16); pg < 16+frames; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, fr.Data, pg)
		if fr.Data[4095] != 0xA0 {
			t.Fatalf("page %d ends in %#x", pg, fr.Data[4095])
		}
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Timeouts == 0 {
		t.Error("no timeout counted")
	}
}
