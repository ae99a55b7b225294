package upager

import (
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// farBacking is a Backing that is far: a Client or a Cluster, or a
// wrapper that keeps what makes it so.
type farBacking interface {
	Backing
	far
}

// proxiedCluster is a 2 × 2 memcluster of fresh in-process memnodes with
// its prober off, every replica dialled over TCP through a wireProxy of
// its own; delay sets the wire of all four.
func proxiedCluster(t *testing.T) (cl *memcluster.Cluster, delay func(time.Duration)) {
	t.Helper()
	addrs := make([][]string, 2)
	var proxies []*wireProxy
	for i := 0; i < 4; i++ {
		srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		proxy := newWireProxy(t, srv.Addr())
		proxies = append(proxies, proxy)
		addrs[i/2] = append(addrs[i/2], proxy.ln.Addr().String())
	}
	cl, err := memcluster.New(addrs, memcluster.Options{DisableProber: true, Node: memnode.Options{Transport: memnode.TransportTCP}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, func(d time.Duration) {
		for _, proxy := range proxies {
			proxy.delay.Store(int64(d))
		}
	}
}

// slowWriteback holds every batched write back before it goes out.
type slowWriteback struct {
	farBacking
	hold time.Duration
}

func (b *slowWriteback) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	time.Sleep(b.hold)
	return b.farBacking.WriteV(handle, offsets, pages)
}

// TestFaultOverlapsReclaim: a fault that meets a dry pool starts its
// read before it waits for a frame, so it costs the longer of the two,
// not their sum. A wire 100 ms long, a writeback that takes 300 ms, every
// frame dirty: the fault takes the writeback's 300 ms, not 400 — over a
// client, and over a cluster whose every replica has that wire.
func TestFaultOverlapsReclaim(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		c, proxy := proxiedClient(t, memnode.Options{})
		faultOverlapsReclaim(t, c, func(d time.Duration) { proxy.delay.Store(int64(d)) })
	})
	t.Run("cluster", func(t *testing.T) {
		cl, delay := proxiedCluster(t)
		faultOverlapsReclaim(t, cl, delay)
	})
}

func faultOverlapsReclaim(t *testing.T, backing farBacking, delay func(time.Duration)) {
	const wire, hold = 100 * time.Millisecond, 200 * time.Millisecond
	const frames = 4
	p, err := New(&slowWriteback{farBacking: backing, hold: hold}, 64, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, adapted := p.far.(adapter); adapted {
		t.Fatal("the wrapped backing lost its started read")
	}
	markStored(p, 64)
	// Every frame dirty and pinned: the pool is dry and stays so.
	var held []Frame
	for pg := uint64(0); pg < frames; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		held = append(held, fr)
	}
	delay(wire)
	for _, fr := range held {
		fr.Unpin() // the last of these at the latest wakes the evictor
	}
	start := time.Now()
	fr, err := p.Pin(10, false)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	writeback := hold + wire
	if took < writeback-wire/2 || took > writeback+wire/2 {
		t.Errorf("a fault into a dry pool took %v; want the writeback's %v, not that and the read's %v", took, writeback, wire)
	}
	if s := p.Stats(); s.FrameWaits != 1 || s.WritebackBatches == 0 {
		t.Errorf("frame waits = %d, writeback batches = %d; want the one fault to have waited for a writeback", s.FrameWaits, s.WritebackBatches)
	}
	delay(0)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// scriptedReads is a memnode client whose demand-path reads are on
// record: every destination list ReadVInto is handed, and, for every
// read StartReadVInto starts, the frame waits the pager had counted by
// then.
type scriptedReads struct {
	*memnode.Client
	pager *Pager

	mu     sync.Mutex
	intos  [][][]byte
	starts []uint64
}

func (s *scriptedReads) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	s.mu.Lock()
	s.intos = append(s.intos, dst)
	s.mu.Unlock()
	return s.Client.ReadVInto(handle, offsets, dst)
}

func (s *scriptedReads) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	s.mu.Lock()
	s.starts = append(s.starts, s.pager.Stats().FrameWaits)
	s.mu.Unlock()
	s.Client.StartReadVInto(handle, offsets, dst, done)
}

func (s *scriptedReads) record() (intos [][][]byte, starts []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.intos), slices.Clone(s.starts)
}

// TestDemandFaultLandsInFrame: a fault that gets a free frame at once
// reads its page straight into it — one ReadVInto whose one destination
// is the frame's bytes in the arena — and starts no read. One that finds
// the pool dry starts its read before it waits for a frame.
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
	sr.pager = p
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
	if _, starts := sr.record(); len(starts) != 0 {
		t.Errorf("faults that had a free frame started %d reads", len(starts))
	}

	// Every frame pinned: the pool is dry until one is let go.
	faulted := make(chan error, 1)
	go func() {
		fr, err := p.Pin(10, false)
		if err == nil {
			fr.Unpin()
		}
		faulted <- err
	}()
	waitFor(t, "the fault to wait for a frame", func() bool { return p.Stats().FrameWaits == 1 })
	held[0].Unpin()
	if err := <-faulted; err != nil {
		t.Fatal(err)
	}
	intos, starts := sr.record()
	if len(intos) != frames || len(starts) != 1 || starts[0] != 0 {
		t.Errorf("the fault into a dry pool made %d reads into frames and started reads at frame waits %v; want none, and one started before its wait", len(intos)-frames, starts)
	}
	for _, fr := range held[1:] {
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
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
