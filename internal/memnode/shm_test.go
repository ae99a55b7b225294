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
func newShmServer(t testing.TB, capacity int64) *Server {
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
// the file link.
func newShmPair(t testing.TB, capacity int64) (*Server, *Client) {
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
	// STAT counts the file link's verbs, off the region's counter page.
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions == 0 || st.WriteOps == 0 {
		t.Errorf("stat over shm looks empty: %+v", st)
	}
}

// TestShmSuite runs the core verb semantics over the file link: batch
// verbs, error statuses, MaxIO transfers, and pipelined async traffic.
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

// TestShmServerChaos kills the server with the region attached and 256
// ops started. The client must find the region revoked, or the stream
// dead, fail what is pending into the retry loop, and transparently
// re-negotiate against the restarted server — including the REGISTER
// replay that attaches the new region. The restarted server comes back
// shm-enabled, so the recovered link is the file link again.
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
	// region file) and the handle is fully usable. This roundtrip forces the
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
// guarantee on the file link: Close resolves every op promptly.
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

// BenchmarkMemnodeShmPipeline is BenchmarkMemnodePipeline over the
// shared-memory transport: same 32-deep synchronous-read lanes, same
// pages/s and p99 metrics, so the two numbers are directly comparable.
// make bench pins its pages/s, p99 and allocs/op with benchsnap -require.
func BenchmarkMemnodeShmPipeline(b *testing.B) {
	if !ShmSupported {
		b.Skip("shm transport unsupported on this platform")
	}
	srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: true})
	if err != nil {
		b.Skipf("shm server unavailable: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
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
// gets a call table of twice its calls and some, so that the ID
// allocator always finds a free slot at once.
func TestShmTableHoldsTwiceTheWindow(t *testing.T) {
	for w := 1; w <= maxWindow; w++ {
		if n := tableSize(w); n < uint64(2*w+16) {
			t.Fatalf("window %d gets a table of %d; want at least %d", w, n, 2*w+16)
		}
	}
}

// detach drops region id's file from c's file link, so that the
// region's verbs ride the frames.
func detach(t *testing.T, c *Client, id uint64) {
	t.Helper()
	st := c.liveLink()
	var f *regionFile
	if st != nil && st.files != nil {
		f = st.files.acquire(id)
	}
	if f == nil {
		t.Fatalf("region %d is not attached", id)
	}
	f.release()
	st.files.remove(id, nil)
}

// TestFileVerbTakesNoWindowSlot: a synchronous page verb on an attached
// region is never in flight on the wire, so it takes no slot of the
// window. With every slot held by a call the server leaves unanswered,
// a Write, a Read and a one-page ReadVInto of the attached region still
// complete.
func TestFileVerbTakesNoWindowSlot(t *testing.T) {
	srv := newShmServer(t, 16<<20)
	defer srv.Close()
	opts := fastOpts()
	opts.Window = 4
	opts.IOTimeout = 30 * time.Second // nothing here may pass by timing out
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attached, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	detach(t, c, framed)

	srv.mu.Lock() // the server's frames stall: exec takes the lock
	var once sync.Once
	release := func() { once.Do(srv.mu.Unlock) }
	defer release()
	held := make([]*Pending, opts.Window)
	for i := range held {
		held[i] = c.ReadAsync(framed, int64(i)*4096, 4096)
	}
	if n := len(c.window); n != opts.Window {
		t.Fatalf("%d of %d window slots held", n, opts.Window)
	}
	done := make(chan error, 1)
	go func() {
		want := stampedPages(1)
		if err := c.Write(attached, 4096, want); err != nil {
			done <- err
			return
		}
		body, err := c.Read(attached, 4096, 4096)
		if err != nil {
			done <- err
			return
		}
		dst := [][]byte{make([]byte, 4096)}
		if err := c.ReadVInto(attached, []int64{4096}, dst); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(body, want) || !bytes.Equal(dst[0], want) {
			err = errors.New("the attached region gave back other bytes")
		}
		PutBuf(body)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("verbs on an attached region waited for a window slot")
	}
	release()
	for i, p := range held {
		body, err := p.Wait()
		if err != nil {
			t.Fatalf("held read %d: %v", i, err)
		}
		PutBuf(body)
	}
}

// TestFileBatchTakesNoWindowSlot: a batch on an attached region runs on
// its file like a single page does, started or not. With every slot of
// the window held by a call the server leaves unanswered, a READV and a
// WRITEV of 8 pages, each synchronous and started, complete before the
// call returns; once the server answers again, each row allocates
// nothing.
func TestFileBatchTakesNoWindowSlot(t *testing.T) {
	srv := newShmServer(t, 16<<20)
	defer srv.Close()
	opts := fastOpts()
	opts.Window = 4
	opts.IOTimeout = 30 * time.Second // nothing here may pass by timing out
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attached, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	detach(t, c, framed)

	const pages = 8
	offs := make([]int64, pages)
	for i := range offs {
		offs[i] = int64(2*i+1) * 4096 // not adjacent: 8 ranges
	}
	want := stampedPages(pages)
	src, dst := SplitPages(want, 4096), SplitPages(make([]byte, pages*4096), 4096)
	var hooked int
	var hookErr error
	hook := func(err error) { hooked, hookErr = hooked+1, err }
	started := func(start func()) error {
		hooked, hookErr = 0, nil
		start()
		if hooked != 1 {
			return errors.New("a started batch on an attached region did not end before its start returned")
		}
		return hookErr
	}
	rows := []struct {
		name string
		run  func() error
	}{
		{"WriteV", func() error { return c.WriteV(attached, offs, src) }},
		{"ReadVInto", func() error { return c.ReadVInto(attached, offs, dst) }},
		{"StartWriteV", func() error {
			return started(func() { c.StartWriteV(attached, offs, src, hook) })
		}},
		{"StartReadVInto", func() error {
			return started(func() { c.StartReadVInto(attached, offs, dst, hook) })
		}},
	}

	srv.mu.Lock() // the server's frames stall: exec takes the lock
	var once sync.Once
	release := func() { once.Do(srv.mu.Unlock) }
	defer release()
	held := make([]*Pending, opts.Window)
	for i := range held {
		held[i] = c.ReadAsync(framed, int64(i)*4096, 4096)
	}
	if n := len(c.window); n != opts.Window {
		t.Fatalf("%d of %d window slots held", n, opts.Window)
	}
	for _, row := range rows {
		done := make(chan error, 1)
		go func() { done <- row.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", row.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s of an attached region waited for a window slot", row.name)
		}
	}
	if !bytes.Equal(bytes.Join(dst, nil), want) {
		t.Fatal("the attached region gave back other bytes")
	}
	release()
	for i, p := range held {
		body, err := p.Wait()
		if err != nil {
			t.Fatalf("held read %d: %v", i, err)
		}
		PutBuf(body)
	}

	if raceEnabled {
		return
	}
	for _, row := range rows {
		if n := testing.AllocsPerRun(100, func() {
			if err := row.run(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s of 8 pages on an attached region costs %.2f allocations, want 0", row.name, n)
		}
	}
}

// TestRevokedFileVerbRidesFrames: a synchronous verb on a region whose
// file the server revoked lets go of the file and rides the frames. Here
// the server has lost the region: the frames say so, and the client
// replays its REGISTER, attaches the new region's file and reads that.
func TestRevokedFileVerbRidesFrames(t *testing.T) {
	srv, c := newShmPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(id, 0, stampedPages(1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.doUnregister(id); err != nil {
		t.Fatal(err)
	}
	dst := [][]byte{make([]byte, 4096)}
	if err := c.ReadVInto(id, []int64{0}, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[0], make([]byte, 4096)) {
		t.Error("the replayed region is not zero-filled")
	}
	if m := c.Metrics(); m.RegionReplays != 1 || m.ReadV.Ops != 1 {
		t.Errorf("%d REGISTER replays and %d ReadV ops; want the verb to have ridden the frames to one replay, and counted once", m.RegionReplays, m.ReadV.Ops)
	}
	st := c.liveLink()
	f := st.files.acquire(c.translate(id))
	if f == nil {
		t.Fatal("the replayed region's file is not attached")
	}
	f.release()
}

// TestFilePageTakesNoLock: a synchronous one-page read of an attached
// region reaches the region file without taking a lock of the client's
// or allocating. With the connection lock and the region-table lock
// held, a one-page ReadVInto returns the page, at zero allocations. An
// out-of-bounds offset is refused in the frames' words, a revoked region
// rides the frames, and a closed client fails with ErrClosed.
func TestFilePageTakesNoLock(t *testing.T) {
	srv, c := newShmPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	want := stampedPages(1)
	if err := c.Write(id, 4096, want); err != nil {
		t.Fatal(err)
	}
	st := c.liveLink()
	offs, dst := []int64{4096}, [][]byte{make([]byte, 4096)}

	c.mu.Lock()
	c.regMu.Lock()
	var once sync.Once
	unlock := func() { once.Do(func() { c.regMu.Unlock(); c.mu.Unlock() }) }
	defer unlock()
	done := make(chan error, 1)
	go func() { done <- c.ReadVInto(id, offs, dst) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a one-page ReadVInto of an attached region waited for a lock of the client's")
	}
	if !bytes.Equal(dst[0], want) {
		t.Fatal("the page did not land in the caller's buffer")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, func() {
			if err := c.ReadVInto(id, offs, dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a one-page ReadVInto of an attached region costs %.2f allocations, want 0", n)
		}
	}
	unlock()

	opts := fastOpts()
	opts.Transport = TransportTCP
	tc, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tid, err := tc.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	past := []int64{1 << 20}
	framed, filed := tc.ReadVInto(tid, past, dst), c.ReadVInto(id, past, dst)
	if framed == nil || filed == nil || !IsTerminal(filed) || filed.Error() != framed.Error() {
		t.Errorf("out of bounds: the file link says %v, the frames %v", filed, framed)
	}
	if c.liveLink() != st {
		t.Error("a refused read cost the file link its stream")
	}

	if err := srv.doUnregister(id); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadVInto(id, offs, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[0], make([]byte, 4096)) || c.Metrics().RegionReplays != 1 {
		t.Errorf("a revoked region's read gave other bytes, or %d REGISTER replays; want it to ride the frames to one", c.Metrics().RegionReplays)
	}

	c.Close()
	if err := c.ReadVInto(id, offs, dst); !errors.Is(err, ErrClosed) || err.Error() != ErrClosed.Error() {
		t.Errorf("a closed client's read: %v, want %v", err, ErrClosed)
	}
}
