package memnode

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/stats"
)

// newShmServer starts a server with the shm transport enabled, skipping
// the test on platforms that cannot provide it.
func newShmServer(t *testing.T, capacity int64) *Server {
	t.Helper()
	if !ShmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
	srv, err := NewServerOptions("127.0.0.1:0", capacity, ServerOptions{EnableShm: true})
	if err != nil {
		t.Skipf("shm server unavailable: %v", err)
	}
	return srv
}

// newShmPair returns an shm-enabled server and a client that negotiated
// the shm transport.
func newShmPair(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv := newShmServer(t, capacity)
	t.Cleanup(func() { srv.Close() })
	c, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestShmRoundtrip(t *testing.T) {
	srv, c := newShmPair(t, 64<<20)
	if srv.ShmAddr() == "" {
		t.Fatal("shm server advertises no socket path")
	}
	roundtrip(t, c)
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind = %q, want shm", got)
	}
	m := c.Metrics()
	if m.ShmConnects == 0 {
		t.Error("no shm connects recorded")
	}
	if m.ShmFallbacks != 0 {
		t.Errorf("unexpected shm fallbacks: %d", m.ShmFallbacks)
	}
	// Stats flow through the same region store as TCP.
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions == 0 || st.WriteOps == 0 {
		t.Errorf("stat over shm looks empty: %+v", st)
	}
}

// TestShmSuite runs the core verb semantics over the shm transport:
// batch verbs, error statuses, large transfers through the first-fit
// region of the arena, and pipelined async traffic.
func TestShmSuite(t *testing.T) {
	_, c := newShmPair(t, 128<<20)
	id, err := c.Register(32 << 20)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("batchVerbs", func(t *testing.T) {
		const pages, pageBytes = 64, 4096
		offsets := make([]int64, pages)
		wpages := make([][]byte, pages)
		for i := range offsets {
			offsets[i] = int64(i) * pageBytes
			pg := make([]byte, pageBytes)
			for j := range pg {
				pg[j] = byte(i ^ j)
			}
			wpages[i] = pg
		}
		if err := c.WriteV(id, offsets, wpages); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadV(id, offsets, pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], wpages[i]) {
				t.Fatalf("page %d corrupted over shm", i)
			}
		}
	})

	t.Run("largeTransfer", func(t *testing.T) {
		// MaxIO-sized single ops exercise the large first-fit region.
		big := make([]byte, MaxIO)
		for i := range big {
			big[i] = byte(i * 7)
		}
		if err := c.Write(id, 16<<20, big); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(id, 16<<20, MaxIO)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, big) {
			t.Fatal("MaxIO transfer corrupted over shm")
		}
		PutBuf(got)
	})

	t.Run("errorStatuses", func(t *testing.T) {
		// Out-of-bounds read: terminal server error, stream stays healthy.
		if _, err := c.Read(id, 32<<20, 4096); err == nil {
			t.Fatal("out-of-bounds read succeeded")
		}
		// Unknown region: terminal (not replayable by this client).
		if _, err := c.Read(9999, 0, 4096); err == nil {
			t.Fatal("unknown-region read succeeded")
		}
		// The stream must still be live for valid ops.
		roundtripRegion(t, c, id)
		if got := c.TransportKind(); got != "shm" {
			t.Fatalf("TransportKind after errors = %q, want shm", got)
		}
	})

	t.Run("asyncPipeline", func(t *testing.T) {
		const depth = 128
		page := make([]byte, 4096)
		for i := range page {
			page[i] = 0x5A
		}
		pend := make([]*Pending, 0, depth)
		writes := make([]<-chan error, 0, depth)
		for i := 0; i < depth; i++ {
			writes = append(writes, writeAsync(c, id, int64(i)*4096, page))
			pend = append(pend, c.ReadAsync(id, int64(depth+i)*4096, 4096))
		}
		for i, w := range writes {
			if err := <-w; err != nil {
				t.Fatalf("async write %d: %v", i, err)
			}
		}
		for i, p := range pend {
			body, err := p.Wait()
			if err != nil {
				t.Fatalf("async op %d: %v", i, err)
			}
			if body != nil {
				PutBuf(body)
			}
		}
	})
}

// roundtripRegion writes and reads back one page in an existing region.
func roundtripRegion(t *testing.T, c *Client, id uint64) {
	t.Helper()
	want := []byte("shm transport payload .........")
	if err := c.Write(id, 4096, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, 4096, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("roundtrip corrupted")
	}
	PutBuf(got)
}

// TestShmNegotiationMatrix pins the transport-selection behavior across
// every client/server capability combination.
func TestShmNegotiationMatrix(t *testing.T) {
	t.Run("autoClientShmServer", func(t *testing.T) {
		_, c := newShmPair(t, 16<<20)
		roundtrip(t, c)
		if got := c.TransportKind(); got != "shm" {
			t.Fatalf("TransportKind = %q, want shm", got)
		}
	})
	t.Run("autoClientTcpOnlyServer", func(t *testing.T) {
		srv, err := NewServer("127.0.0.1:0", 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := DialOptions(srv.Addr(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		roundtrip(t, c)
		if got := c.TransportKind(); got != "tcp-v2" {
			t.Fatalf("TransportKind = %q, want tcp-v2", got)
		}
		if m := c.Metrics(); m.ShmFallbacks != 0 || m.ShmConnects != 0 {
			t.Errorf("tcp-only negotiation touched shm counters: %+v", m)
		}
	})
	t.Run("tcpOverrideAgainstShmServer", func(t *testing.T) {
		srv := newShmServer(t, 16<<20)
		defer srv.Close()
		opts := fastOpts()
		opts.Transport = TransportTCP
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		roundtrip(t, c)
		if got := c.TransportKind(); got != "tcp-v2" {
			t.Fatalf("TransportKind = %q, want tcp-v2", got)
		}
	})
	t.Run("shmRequiredAgainstTcpOnlyServer", func(t *testing.T) {
		if !ShmSupported {
			t.Skip("shm transport unsupported on this platform")
		}
		srv, err := NewServer("127.0.0.1:0", 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		opts := fastOpts()
		opts.Transport = TransportShm
		opts.MaxAttempts = 2
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Register(1 << 20); err == nil {
			t.Fatal("forced-shm client succeeded against a tcp-only server")
		}
	})
}

// TestShmServerChaos kills the server mid-ring with the arena still
// mapped and 256 calls in flight. The client must detect peer death via
// the doorbell socket EOF, fail pending calls into the retry loop, and
// transparently re-negotiate against the restarted server — including
// REGISTER replay. The restarted server comes back shm-enabled, so the
// recovered stream is shm again.
func TestShmServerChaos(t *testing.T) {
	srv := newShmServer(t, 256<<20)
	addr := srv.Addr()
	opts := fastOpts()
	opts.Window = 256
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind before chaos = %q, want shm", got)
	}

	const inflight = 256
	page := make([]byte, 4096)
	for i := range page {
		page[i] = 0xCD
	}
	pend := make([]*Pending, 0, inflight/2)
	writes := make([]<-chan error, 0, inflight/2)
	for i := 0; i < inflight/2; i++ {
		writes = append(writes, writeAsync(c, id, int64(i)*4096, page))
		pend = append(pend, c.ReadAsync(id, int64(128+i)*4096, 4096))
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	var srv2 *Server
	for {
		srv2, err = NewServerOptions(addr, 256<<20, ServerOptions{EnableShm: true})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not restart server on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	timeout := time.After(30 * time.Second)
	for i, p := range pend {
		select {
		case <-p.Done():
			if body, err := p.Wait(); err == nil && body != nil {
				PutBuf(body)
			}
		case <-timeout:
			t.Fatalf("op %d/%d still hanging after server restart", i, len(pend))
		}
	}
	for i, w := range writes {
		select {
		case <-w:
		case <-timeout:
			t.Fatalf("write %d/%d still hanging after server restart", i, len(writes))
		}
	}

	// The recovered connection negotiated shm again (fresh token, fresh
	// segment) and the handle is fully usable. This roundtrip forces the
	// reconnect even if every async op happened to finish before Close.
	roundtripRegion(t, c, id)
	m := c.Metrics()
	if m.Reconnects == 0 {
		t.Error("expected reconnects across the restart")
	}
	if m.RegionReplays == 0 {
		t.Error("expected a REGISTER replay after the restart")
	}
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind after restart = %q, want shm", got)
	}
}

// TestShmChaosFallbackToTcp kills an shm server and restarts it
// shm-disabled on the same port: the client must detect the death, fail
// pending calls, and recover over plain TCP v2.
func TestShmChaosFallbackToTcp(t *testing.T) {
	srv := newShmServer(t, 64<<20)
	addr := srv.Addr()
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind = %q, want shm", got)
	}
	pend := make([]*Pending, 0, 64)
	for i := 0; i < 64; i++ {
		pend = append(pend, c.ReadAsync(id, int64(i)*4096, 4096))
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	var srv2 *Server
	for {
		srv2, err = NewServer(addr, 64<<20) // no shm this time
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not restart server on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	timeout := time.After(30 * time.Second)
	for i, p := range pend {
		select {
		case <-p.Done():
			if body, err := p.Wait(); err == nil && body != nil {
				PutBuf(body)
			}
		case <-timeout:
			t.Fatalf("op %d still hanging after shm→tcp fallback", i)
		}
	}
	roundtripRegion(t, c, id)
	if got := c.TransportKind(); got != "tcp-v2" {
		t.Fatalf("TransportKind after shm-refusing restart = %q, want tcp-v2", got)
	}
}

// TestShmCloseUnblocksPending mirrors the TCP Close-mid-flight
// guarantee on the shm path: Close fails in-flight calls promptly even
// when the server never completes them.
func TestShmCloseUnblocksPending(t *testing.T) {
	srv := newShmServer(t, 64<<20)
	defer srv.Close()
	opts := fastOpts()
	opts.IOTimeout = 30 * time.Second
	opts.MaxAttempts = 100
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Register(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Stall the server's ring consumer by never letting it see a
	// doorbell: simplest is to kill its handler mid-flight via Close
	// below, so just put ops in flight and Close the client.
	pend := make([]*Pending, 0, 32)
	for i := 0; i < 32; i++ {
		pend = append(pend, c.ReadAsync(id, int64(i)*4096, 4096))
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(5 * time.Second)
	for i, p := range pend {
		select {
		case <-p.Done():
			if _, err := p.Wait(); err != nil && !errors.Is(err, ErrClosed) {
				// Ops that completed before Close are fine too.
				var se *serverError
				if !errors.As(err, &se) {
					t.Logf("op %d resolved with %v", i, err)
				}
			}
		case <-timeout:
			t.Fatalf("op %d still pending %v after Close", i, time.Since(start))
		}
	}
}

// TestShmArenaAllocator unit-tests the hybrid extent allocator:
// small-slot LIFO reuse, first-fit large allocation, and coalescing.
func TestShmArenaAllocator(t *testing.T) {
	const arena = 8 << 20
	a := newShmArena(arena, 16)
	// Page-sized allocations come from the page pool and recycle LIFO.
	off1, cap1, ok := a.alloc(4096)
	if !ok || cap1 != shmPageExtBytes {
		t.Fatalf("page alloc: off=%d cap=%d ok=%v", off1, cap1, ok)
	}
	a.free(off1, cap1)
	off2, _, ok := a.alloc(100)
	if !ok || off2 != off1 {
		t.Fatalf("LIFO reuse broken: got %d, want %d", off2, off1)
	}
	a.free(off2, shmPageExtBytes)
	// Mid-sized allocations land in the small class, above the page pool.
	offS, capS, ok := a.alloc(shmPageExtBytes + 1)
	if !ok || capS != shmSmallExtBytes || offS < a.pageLimit {
		t.Fatalf("small alloc: off=%d cap=%d ok=%v (pageLimit %d)", offS, capS, ok, a.pageLimit)
	}
	a.free(offS, capS)

	// Large allocations are 4 KiB-rounded, disjoint, and inside bounds.
	offA, capA, ok := a.alloc(1 << 20)
	if !ok || offA < a.smallLimit || capA < 1<<20 {
		t.Fatalf("large alloc A: off=%d cap=%d ok=%v", offA, capA, ok)
	}
	offB, capB, ok := a.alloc(2 << 20)
	if !ok || offB < offA+capA {
		t.Fatalf("large alloc B overlaps A: A=[%d,+%d) B=[%d,+%d)", offA, capA, offB, capB)
	}
	// Free both; coalescing must let a bigger extent fit again.
	a.free(offA, capA)
	a.free(offB, capB)
	offC, capC, ok := a.alloc(3 << 20)
	if !ok || offC != offA || capC < 3<<20 {
		t.Fatalf("coalescing broken: off=%d cap=%d ok=%v (want off=%d)", offC, capC, ok, offA)
	}
	a.free(offC, capC)

	// Exhaustion returns ok=false, not a bogus extent.
	if _, _, ok := a.alloc(arena * 2); ok {
		t.Fatal("oversized alloc succeeded")
	}
}

// TestShmLayout pins the geometry validation: hostile handshake values
// must be rejected before any mapping math uses them.
func TestShmLayout(t *testing.T) {
	l := shmLayoutFor(128, 42)
	if err := l.validate(l.segBytes); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	if l.entries < 2*128 {
		t.Fatalf("ring entries %d cannot hold twice the window", l.entries)
	}
	bad := []shmLayout{
		{entries: 0, arenaOff: l.arenaOff, arenaBytes: l.arenaBytes, segBytes: l.segBytes},
		{entries: 100, arenaOff: l.arenaOff, arenaBytes: l.arenaBytes, segBytes: l.segBytes},           // not a power of two
		{entries: l.entries, arenaOff: 8, arenaBytes: l.arenaBytes, segBytes: l.segBytes},              // arena inside rings
		{entries: l.entries, arenaOff: l.arenaOff, arenaBytes: 1 << 40, segBytes: l.segBytes},          // absurd arena
		{entries: l.entries, arenaOff: l.arenaOff, arenaBytes: l.arenaBytes, segBytes: l.arenaOff},     // arena outside segment
		{entries: l.entries, arenaOff: l.arenaOff, arenaBytes: l.arenaBytes, segBytes: l.segBytes * 2}, // claims more than backing
	}
	for i, b := range bad {
		if err := b.validate(l.segBytes); err == nil {
			t.Errorf("hostile layout %d accepted", i)
		}
	}
}

// BenchmarkMemnodeShmPipeline is BenchmarkMemnodePipeline over the
// shared-memory transport: same 32-deep synchronous-read lanes, same
// pages/s and p99 metrics, so the two numbers are directly comparable.
// make bench pins its pages/s, p99 and allocs/op with benchsnap -require.
func BenchmarkMemnodeShmPipeline(b *testing.B) { benchShmPipeline(b, false) }

// BenchmarkMemnodeShmPipelineParked is the same pipeline with every
// yield budget on both sides held at zero, so each wait parks and each
// publish rings a doorbell: the steady state of a stream whose peer
// shares its CPU. Its allocs/op must read 0 like the polling variant's.
func BenchmarkMemnodeShmPipelineParked(b *testing.B) { benchShmPipeline(b, true) }

func benchShmPipeline(b *testing.B, parked bool) {
	if !ShmSupported {
		b.Skip("shm transport unsupported on this platform")
	}
	srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: true})
	if err != nil {
		b.Skipf("shm server unavailable: %v", err)
	}
	defer srv.Close()
	srv.shmParkOnly.Store(parked)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.shmParkOnly.Store(parked)
	id, _ := c.Register(32 << 20)
	if got := c.TransportKind(); got != "shm" {
		b.Fatalf("TransportKind = %q, want shm", got)
	}
	const depth = 32
	lat := stats.NewConcurrentHistogram()
	var next atomic.Int64
	var fails atomic.Uint64
	var wg sync.WaitGroup
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for d := 0; d < depth; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := stats.NewHistogram()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					break
				}
				t0 := time.Now()
				body, err := c.Read(id, (i%8192)*4096, 4096)
				if err != nil {
					fails.Add(1)
					continue
				}
				PutBuf(body)
				h.Record(time.Since(t0).Nanoseconds())
			}
			lat.Merge(h)
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := fails.Load(); n > 0 {
		b.Fatalf("%d pipelined shm reads failed", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(lat.Snapshot().P99())/1e3, "p99-us")
}

func TestShmUnregister(t *testing.T) {
	_, c := newShmPair(t, 8<<20)
	unregisterSuite(t, c)
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind = %q, want shm", got)
	}
}

// TestShmTableHoldsTwiceTheWindow: every window a client may ask for
// gets rings of twice its calls and some, which is why a full ring is a
// broken peer and never backpressure.
func TestShmTableHoldsTwiceTheWindow(t *testing.T) {
	for w := 1; w <= shmMaxWindow; w++ {
		if n := tableSize(w); n < uint64(2*w+16) {
			t.Fatalf("window %d gets a table of %d; want at least %d", w, n, 2*w+16)
		}
	}
}

// shmOf is the live shm stream of c.
func shmOf(t *testing.T, c *Client) *shmStream {
	t.Helper()
	l, err := c.getStream()
	st, ok := l.(*shmStream)
	if err != nil || !ok {
		t.Fatalf("no shm stream: %T, %v", l, err)
	}
	return st
}

// waitParked waits until the side that owns a doorbell flag has
// announced it is parking: from then until its doorbell rings it
// publishes no ring index, and a test may forge the one it owns.
func waitParked(t *testing.T, who string, flag *uint64) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); atomic.LoadUint64(flag) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%s never parked", who)
		}
	}
}

// TestShmFullSubmissionRingPoisons: a client whose submission ring reads
// full has a broken server behind it. The op that finds it so poisons
// the stream at once and completes over a new one, well inside
// IOTimeout, instead of waiting for a slot.
func TestShmFullSubmissionRingPoisons(t *testing.T) {
	_, c := newShmPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st := shmOf(t, c)
	waitParked(t, "the server", st.srvSleep)
	st.mu.Lock()
	atomic.StoreUint64(st.sq.peer, st.sq.local-st.sq.entries) // the server's consumer index
	st.mu.Unlock()
	start := time.Now()
	body, err := c.Read(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	PutBuf(body)
	if took := time.Since(start); took > c.opts.IOTimeout/4 {
		t.Errorf("the read took %v against a full ring; want well under IOTimeout (%v)", took, c.opts.IOTimeout)
	}
	st.mu.Lock()
	poison := st.err
	st.mu.Unlock()
	if !errors.Is(poison, errShmRingCorrupt) || c.Metrics().Reconnects == 0 {
		t.Errorf("stream poisoned with %v, %d reconnects; want ring corruption and a reconnect", poison, c.Metrics().Reconnects)
	}
}

// TestShmCompletionRingOverrunDisconnects: a client whose completion
// ring reads full to the server has overrun it, and the server drops the
// connection at once rather than after shmBellTimeout; the client's op
// completes over a new stream.
func TestShmCompletionRingOverrunDisconnects(t *testing.T) {
	_, c := newShmPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st := shmOf(t, c)
	waitParked(t, "the client's completer", st.cliSleep)
	st.mu.Lock()
	atomic.StoreUint64(st.cq.mine, st.cq.local-st.cq.entries) // the client's consumer index
	st.mu.Unlock()
	start := time.Now()
	body, err := c.Read(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	PutBuf(body)
	if took := time.Since(start); took > shmBellTimeout/5 {
		t.Errorf("the read took %v against an overrun ring; want well under shmBellTimeout (%v)", took, shmBellTimeout)
	}
	if !st.poisoned.Load() || c.Metrics().Reconnects == 0 {
		t.Errorf("old stream poisoned: %v, %d reconnects; want the server to have dropped it", st.poisoned.Load(), c.Metrics().Reconnects)
	}
}
