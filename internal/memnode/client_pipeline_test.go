package memnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/stats"
)

// answerHello plays the server's half of the connection preamble on a
// fake server's conn: it reads the HELLO and answers OK, offering no shm.
func answerHello(conn net.Conn) error {
	var hello [helloReqLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return err
	}
	var resp [helloRespHdrLen + helloRespLen]byte
	resp[0] = statusOK
	binary.LittleEndian.PutUint64(resp[1:], helloRespLen)
	binary.LittleEndian.PutUint64(resp[helloRespHdrLen:], helloMagic)
	binary.LittleEndian.PutUint64(resp[helloRespHdrLen+8:], protoV2)
	_, err := conn.Write(resp[:])
	return err
}

// stallListener accepts connections, completes the negotiation, then
// swallows every request without ever responding — the pathological
// server the Close-mid-flight regression needs. The returned channel
// closes when the first post-negotiation request byte arrives, so the
// test can wait for "an op is on the wire and stalled" as an observed
// condition instead of a guessed sleep.
func stallListener(t *testing.T) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stalled := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if answerHello(conn) != nil {
					return
				}
				var b [1]byte
				if _, err := conn.Read(b[:]); err != nil {
					return
				}
				once.Do(func() { close(stalled) })
				io.Copy(io.Discard, conn) // stall: consume requests, answer nothing
			}()
		}
	}()
	return ln.Addr().String(), stalled
}

// TestCloseUnblocksStalledOp is the regression test for the old
// lock-scope bug: Client.do used to hold c.mu across the blocking
// round trip, so Close (and Metrics) stalled behind a dead server.
// The pipelined client keeps the lifecycle lock off the data path.
func TestCloseUnblocksStalledOp(t *testing.T) {
	addr, stalled := stallListener(t)
	opts := DefaultOptions()
	opts.IOTimeout = 30 * time.Second // far longer than the test budget
	opts.MaxAttempts = 100
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opErr := make(chan error, 1)
	go func() {
		_, err := c.Read(1, 0, 4096)
		opErr <- err
	}()
	select {
	case <-stalled: // the op reached the wire and is now stalled
	case <-time.After(5 * time.Second):
		t.Fatal("op never reached the stalled server")
	}

	// Metrics must not block behind the stalled op.
	mDone := make(chan struct{})
	go func() { c.Metrics(); close(mDone) }()
	select {
	case <-mDone:
	case <-time.After(time.Second):
		t.Fatal("Metrics blocked behind a stalled op")
	}

	start := time.Now()
	cDone := make(chan error, 1)
	go func() { cDone <- c.Close() }()
	select {
	case <-cDone:
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Close took %v with an op in flight", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind a stalled op")
	}
	select {
	case err := <-opErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("stalled op returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight op never returned after Close")
	}
}

// TestServerChaosDeepPipeline kills and restarts the server under 256
// in-flight operations. Every future must resolve — either success or
// a terminal error, never a hang — and after the dust settles the
// replayed region must hold exactly what a fresh round of writes puts
// there (idempotent replay, no duplicate-apply artifacts).
func TestServerChaosDeepPipeline(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
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

	const inflight = 256
	page := make([]byte, 4096)
	for i := range page {
		page[i] = 0xAB
	}
	pend := make([]*Pending, 0, inflight)
	// Disjoint pages: writes on pages [0,128), reads on pages [128,256).
	for i := 0; i < inflight/2; i++ {
		pend = append(pend, c.WriteAsync(id, int64(i)*4096, page))
		pend = append(pend, c.ReadAsync(id, int64(128+i)*4096, 4096))
	}

	// Kill the server mid-pipeline, then bring it back on the same port.
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	var srv2 *Server
	for {
		srv2, err = NewServer(addr, 256<<20)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not restart server on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// Every future must resolve within the retry budget.
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

	// Post-restart the handle must be fully usable: write and verify
	// every page the pipeline touched.
	want := make([]byte, 4096)
	for i := 0; i < inflight; i++ {
		for j := range want {
			want[j] = byte(i + j)
		}
		if err := c.Write(id, int64(i)*4096, want); err != nil {
			t.Fatalf("post-restart write %d: %v", i, err)
		}
		got, err := c.Read(id, int64(i)*4096, 4096)
		if err != nil {
			t.Fatalf("post-restart read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-restart page %d corrupted", i)
		}
		PutBuf(got)
	}

	// The client must have ridden out the restart transparently. Checked
	// here, not before the round above: a pipeline that drained before
	// the kill landed meets the dead connection only on its next op.
	m := c.Metrics()
	if m.Reconnects == 0 {
		t.Error("expected reconnects across the restart")
	}
	if m.RegionReplays == 0 {
		t.Error("expected a REGISTER replay after the restart")
	}
}

// TestProtocolNegotiation: a client and a server with nothing but TCP
// between them settle on the pipelined frames.
func TestProtocolNegotiation(t *testing.T) {
	t.Run("v2Both", func(t *testing.T) {
		_, c := newPair(t, 16<<20)
		roundtrip(t, c)
		if got := c.TransportKind(); got != "tcp-v2" {
			t.Errorf("TransportKind = %q, want tcp-v2", got)
		}
	})
}

func roundtrip(t *testing.T, c *Client) {
	t.Helper()
	id, err := c.Register(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("negotiated payload")
	if err := c.Write(id, 512, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, 512, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("roundtrip mismatch")
	}
	PutBuf(got)
}

// TestBatchVerbs exercises READV/WRITEV end to end, including a batch
// that straddles a chunk boundary.
func TestBatchVerbs(t *testing.T) {
	_, c := newPair(t, 32<<20)
	id, err := c.Register(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	offsets := []int64{
		0,
		4096,
		ChunkBytes - 2048, // straddles the chunk boundary
		ChunkBytes + 4096,
		6 << 20,
	}
	pages := make([][]byte, len(offsets))
	for i := range pages {
		pages[i] = make([]byte, 4096)
		rng.Read(pages[i])
	}
	if err := c.WriteV(id, offsets, pages); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadV(id, offsets, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], pages[i]) {
			t.Errorf("batch page %d mismatch", i)
		}
	}
	PutBuf(got[0][:0:cap(got[0])])
	// Single-page reads must agree with the batch view.
	single, err := c.Read(id, offsets[2], 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single, pages[2]) {
		t.Error("single read disagrees with batched write")
	}
	PutBuf(single)
	// Per-verb wire accounting: one WRITEV + one READV of 5 pages each,
	// plus the single READ above.
	m := c.Metrics()
	batch := uint64(len(offsets)) * 4096
	if m.WriteV.Ops != 1 || m.WriteV.Bytes != batch {
		t.Errorf("WriteV counters = %+v, want 1 op / %d bytes", m.WriteV, batch)
	}
	if m.ReadV.Ops != 1 || m.ReadV.Bytes != batch {
		t.Errorf("ReadV counters = %+v, want 1 op / %d bytes", m.ReadV, batch)
	}
	if m.Read.Ops != 1 || m.Read.Bytes != 4096 {
		t.Errorf("Read counters = %+v, want 1 op / 4096 bytes", m.Read)
	}
}

// TestBatchAtomicRejection: one bad descriptor fails the whole batch
// with zero partial effects.
func TestBatchAtomicRejection(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pages := [][]byte{
		bytes.Repeat([]byte{1}, 4096),
		bytes.Repeat([]byte{2}, 4096),
	}
	// Second descriptor lands past the region end.
	err = c.WriteV(id, []int64{0, 1<<20 - 100}, pages)
	if err == nil {
		t.Fatal("out-of-bounds batch accepted")
	}
	got, err := c.Read(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("rejected batch left partial effects")
		}
	}
	PutBuf(got)
}

// TestBatchValidation covers the client-side batch shape checks.
func TestBatchValidation(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, _ := c.Register(1 << 20)
	if _, err := c.ReadV(id, nil, 4096); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := c.ReadV(id, make([]int64, MaxBatchPages+1), 4096); err == nil {
		t.Error("oversized batch accepted")
	}
	if err := c.WriteV(id, []int64{0, 4096}, [][]byte{make([]byte, 4096)}); err == nil {
		t.Error("mismatched offsets/pages accepted")
	}
	if err := c.WriteV(id, []int64{0}, [][]byte{nil}); err == nil {
		t.Error("empty page accepted")
	}
}

// TestClientRefusalsAreTerminal: a request the client's own shape
// checks refuse before sending is a caller's mistake, not a node in
// trouble. IsTerminal must say so — memcluster demotes a replica on any
// error that is not terminal — and the refusal must cost no retry.
func TestClientRefusalsAreTerminal(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	huge := make([]byte, MaxIO/2+1)
	refusals := map[string]func() error{
		"read length zero":     func() error { _, err := c.Read(id, 0, 0); return err },
		"read length > MaxIO":  func() error { _, err := c.Read(id, 0, MaxIO+1); return err },
		"write empty":          func() error { return c.Write(id, 0, nil) },
		"write > MaxIO":        func() error { return c.Write(id, 0, make([]byte, MaxIO+1)) },
		"readvinto empty":      func() error { return c.ReadVInto(id, nil, nil) },
		"readvinto mismatched": func() error { return c.ReadVInto(id, []int64{0, 4096}, [][]byte{page}) },
		"readvinto > pages":    func() error { return c.ReadVInto(id, make([]int64, MaxBatchPages+1), make([][]byte, MaxBatchPages+1)) },
		"readvinto nil buffer": func() error { return c.ReadVInto(id, []int64{0}, [][]byte{nil}) },
		"readvinto > MaxIO":    func() error { return c.ReadVInto(id, []int64{0, 0}, [][]byte{huge, huge}) },
		"readv empty":          func() error { _, err := c.ReadV(id, nil, 4096); return err },
		"readv > MaxIO":        func() error { _, err := c.ReadV(id, []int64{0, 0}, MaxIO); return err },
		"writev mismatched":    func() error { return c.WriteV(id, []int64{0, 4096}, [][]byte{page}) },
		"writev empty page":    func() error { return c.WriteV(id, []int64{0}, [][]byte{nil}) },
		"writev > MaxIO":       func() error { return c.WriteV(id, []int64{0, 0}, [][]byte{huge, huge}) },
	}
	for name, do := range refusals {
		err := do()
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsTerminal(err) {
			t.Errorf("%s: %v is not terminal", name, err)
		}
	}
	if m := c.Metrics(); m.Retries != 0 || m.Reconnects != 0 {
		t.Errorf("refusals cost %d retries, %d reconnects", m.Retries, m.Reconnects)
	}
	if err := c.Write(id, 0, page); err != nil {
		t.Errorf("the client stopped serving after refusals: %v", err)
	}
}

// TestAsyncPipeline issues a deep burst of async writes then reads and
// verifies every page — the bread-and-butter pipelined workload.
func TestAsyncPipeline(t *testing.T) {
	_, c := newPair(t, 64<<20)
	id, err := c.Register(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	writes := make([]*Pending, n)
	for i := 0; i < n; i++ {
		pg := bytes.Repeat([]byte{byte(i)}, 4096)
		writes[i] = c.WriteAsync(id, int64(i)*4096, pg)
	}
	for i, p := range writes {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("async write %d: %v", i, err)
		}
	}
	reads := make([]*Pending, n)
	for i := 0; i < n; i++ {
		reads[i] = c.ReadAsync(id, int64(i)*4096, 4096)
	}
	for i, p := range reads {
		body, err := p.Wait()
		if err != nil {
			t.Fatalf("async read %d: %v", i, err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 4096)
		if !bytes.Equal(body, want) {
			t.Fatalf("async read %d mismatch", i)
		}
		PutBuf(body)
	}
	// Async ops ride the same wrappers, so the per-verb counters must see
	// every one of them.
	m := c.Metrics()
	if m.Write.Ops != n || m.Write.Bytes != n*4096 {
		t.Errorf("Write counters = %+v, want %d ops / %d bytes", m.Write, n, n*4096)
	}
	if m.Read.Ops != n || m.Read.Bytes != n*4096 {
		t.Errorf("Read counters = %+v, want %d ops / %d bytes", m.Read, n, n*4096)
	}
}

// BenchmarkServerRoundtrip pins allocs/op on the single-page write+read
// path (pooled request/response buffers, single-writev responses).
func BenchmarkServerRoundtrip(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Register(32 << 20)
	page := make([]byte, 4096)
	b.SetBytes(8192) // one write + one read per iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%4096) * 4096
		if err := c.Write(id, off, page); err != nil {
			b.Fatal(err)
		}
		body, err := c.Read(id, off, 4096)
		if err != nil {
			b.Fatal(err)
		}
		PutBuf(body)
	}
}

// BenchmarkMemnodePipeline measures single-connection throughput with
// 32 requests in flight — the configuration the ISSUE's ≥5x target is
// stated against (cmd/memnode-bench reports the same workload with the
// full percentile spread). 32 persistent lanes issue synchronous reads
// that the client multiplexes onto one pipelined stream; per-lane
// latency histograms merge into the reported p99. benchsnap -require
// pins both pages/s and p99-us in BENCH_*.json snapshots.
func BenchmarkMemnodePipeline(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	id, _ := c.Register(32 << 20)
	const depth = 32
	lat := stats.NewConcurrentHistogram()
	var next atomic.Int64
	var fails atomic.Uint64
	var wg sync.WaitGroup
	b.SetBytes(4096)
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
		b.Fatalf("%d pipelined reads failed", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(lat.Snapshot().P99())/1e3, "p99-us")
}
