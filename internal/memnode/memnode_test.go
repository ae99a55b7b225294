package memnode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func newPair(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestRegisterReadWrite(t *testing.T) {
	_, c := newPair(t, 64<<20)
	id, err := c.Register(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	if err := c.Write(id, 12288, page); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, 12288, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("read back mismatch")
	}
	// Unwritten memory reads as zero.
	z, err := c.Read(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("fresh region not zeroed")
		}
	}
}

func TestCrossChunkIO(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, err := c.Register(4 << 20) // 2 chunks
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	off := int64(ChunkBytes - 32<<10) // straddles the chunk boundary
	if err := c.Write(id, off, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id, off, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-chunk IO corrupted data")
	}
}

func TestOutOfBoundsRejected(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, _ := c.Register(1 << 20)
	if _, err := c.Read(id, 1<<20-100, 4096); err == nil {
		t.Error("read past end accepted")
	}
	if err := c.Write(id, -1, make([]byte, 10)); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := c.Read(id+99, 0, 4096); err == nil {
		t.Error("unknown region accepted")
	}
	// Connection must survive errors.
	if _, err := c.Read(id, 0, 4096); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	_, c := newPair(t, 4<<20)
	if _, err := c.Register(3 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(2 << 20); err == nil {
		t.Error("over-capacity registration accepted")
	}
	if _, err := c.Register(1 << 20); err != nil {
		t.Error("within-capacity registration rejected")
	}
}

func TestInvalidRegisterSize(t *testing.T) {
	_, c := newPair(t, 4<<20)
	if _, err := c.Register(0); err == nil {
		t.Error("zero-size registration accepted")
	}
	if _, err := c.Register(-5); err == nil {
		t.Error("negative-size registration accepted")
	}
}

func TestStat(t *testing.T) {
	_, c := newPair(t, 16<<20)
	id, _ := c.Register(1 << 20)
	c.Write(id, 0, make([]byte, 4096))
	c.Read(id, 0, 4096)
	c.Read(id, 4096, 4096)
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions != 1 || st.UsedBytes != 1<<20 {
		t.Errorf("regions=%d used=%d", st.Regions, st.UsedBytes)
	}
	if st.ReadOps != 2 || st.WriteOps != 1 {
		t.Errorf("reads=%d writes=%d", st.ReadOps, st.WriteOps)
	}
	if st.BytesRead != 8192 || st.BytesWrite != 4096 {
		t.Errorf("bytesRead=%d bytesWrite=%d", st.BytesRead, st.BytesWrite)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, setup := newPair(t, 256<<20)
	id, err := setup.Register(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each worker owns a disjoint slice of pages.
			base := int64(w) * (8 << 20)
			for i := 0; i < 50; i++ {
				pg := base + int64(rng.Intn(2048))*4096
				want := make([]byte, 4096)
				rng.Read(want)
				if err := c.Write(id, pg, want); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				got, err := c.Read(id, pg, 4096)
				if err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d data mismatch at %d", w, pg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	_, c := newPair(t, 32<<20)
	id, _ := c.Register(16 << 20)
	rng := rand.New(rand.NewSource(9))
	shadow := map[int64][]byte{}
	for i := 0; i < 200; i++ {
		pg := int64(rng.Intn(4096)) * 4096
		if rng.Intn(2) == 0 || shadow[pg] == nil {
			data := make([]byte, 4096)
			rng.Read(data)
			if err := c.Write(id, pg, data); err != nil {
				t.Fatal(err)
			}
			shadow[pg] = data
		} else {
			got, err := c.Read(id, pg, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow[pg]) {
				t.Fatalf("page %d diverged from shadow copy", pg/4096)
			}
		}
	}
}

func BenchmarkPageRead(b *testing.B) {
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
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(id, int64(i%4096)*4096, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// unregisterSuite exercises the UNREGISTER verb semantics on any
// negotiated transport: capacity returns to the pool, the stale handle
// dies terminally, and the connection survives it all.
func unregisterSuite(t *testing.T, c *Client) {
	t.Helper()
	id, err := c.Register(6 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(id, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(id); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions != 0 || st.UsedBytes != 0 {
		t.Errorf("after unregister: regions=%d used=%d, want 0/0", st.Regions, st.UsedBytes)
	}
	// The stale handle must fail terminally (no replay: the client
	// forgot the region), without poisoning the connection.
	if _, err := c.Read(id, 0, 4096); err == nil {
		t.Error("read of unregistered region accepted")
	} else if !IsTerminal(err) {
		t.Errorf("stale-handle read failed non-terminally: %v", err)
	}
	if err := c.Unregister(id); err == nil {
		t.Error("double unregister accepted")
	}
	// The freed bytes are reusable: this second region would not fit
	// alongside the first on the 8 MiB server.
	id2, err := c.Register(6 << 20)
	if err != nil {
		t.Fatalf("capacity not returned to pool: %v", err)
	}
	if _, err := c.Read(id2, 0, 4096); err != nil {
		t.Errorf("connection broken after unregister cycle: %v", err)
	}
}

// TestUnregister runs the suite over TCP (TestShmUnregister: the file link).
func TestUnregister(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		_, c := newPair(t, 8<<20)
		unregisterSuite(t, c)
	})
}

func TestUnregisterUnknownHandle(t *testing.T) {
	_, c := newPair(t, 8<<20)
	if err := c.Unregister(12345); err == nil {
		t.Error("unregister of never-registered handle accepted")
	} else if !IsTerminal(err) {
		t.Errorf("unknown-handle unregister failed non-terminally: %v", err)
	}
}

// dialFrames opens a raw connection to srv and completes its HELLO, so
// that what the test writes next is read as pipelined frames.
func dialFrames(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(helloFrame()); err != nil {
		t.Fatal(err)
	}
	var hdr [helloRespHdrLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil || hdr[0] != statusOK {
		t.Fatalf("HELLO refused: status %d, %v", hdr[0], err)
	}
	if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint64(hdr[1:]))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readReply reads one reply frame from conn and checks that it answers
// request id with OK. A reply that takes seconds on loopback is one the
// server is holding back.
func readReply(t *testing.T, conn net.Conn, id uint64) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) // bounding a hang in a real-network test
	var hdr [v2RespHdrLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("no reply to request %d: %v", id, err)
	}
	body := make([]byte, binary.LittleEndian.Uint64(hdr[9:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("reply to request %d cut short: %v", id, err)
	}
	if got := binary.LittleEndian.Uint64(hdr[1:]); got != id || hdr[0] != statusOK {
		t.Fatalf("reply for request %d status %d (%q), want request %d OK", got, hdr[0], body, id)
	}
	return body
}

// TestServerOneGoroutinePerConnection: a TCP connection is served by its
// handler goroutine alone, which reads, executes and replies in turn.
func TestServerOneGoroutinePerConnection(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseline := runtime.NumGoroutine()
	const conns, slack = 16, 4
	for i := 0; i < conns; i++ {
		conn := dialFrames(t, srv)
		// A STAT answered: the connection's frames are being served.
		if _, err := conn.Write(v2frame(opStat, 1, 0, 0, 0, nil)); err != nil {
			t.Fatal(err)
		}
		readReply(t, conn, 1)
	}
	if n := runtime.NumGoroutine() - baseline; n > conns+slack {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d connections added %d goroutines, want at most %d\n%s",
			conns, n, conns+slack, buf[:runtime.Stack(buf, true)])
	}
}

// TestServerFlushesBeforeBlockingOnPayload: a READ followed by half of a
// WRITE's payload. The server must send the READ's reply before it waits
// for the rest of the payload: the peer may hold the rest back until the
// reply arrives.
func TestServerFlushesBeforeBlockingOnPayload(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialFrames(t, srv)
	if _, err := conn.Write(v2frame(opRegister, 1, 0, 0, 1<<20, nil)); err != nil {
		t.Fatal(err)
	}
	region := binary.LittleEndian.Uint64(readReply(t, conn, 1))
	page := bytes.Repeat([]byte{0x5A}, 4096)
	write := v2frame(opWrite, 3, region, 0, int64(len(page)), page)
	half := v2ReqHdrLen + len(page)/2
	if _, err := conn.Write(append(v2frame(opRead, 2, region, 0, 4096, nil), write[:half]...)); err != nil {
		t.Fatal(err)
	}
	if got := readReply(t, conn, 2); !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("the READ did not read the fresh region's zeros")
	}
	if _, err := conn.Write(write[half:]); err != nil {
		t.Fatal(err)
	}
	readReply(t, conn, 3)
	if _, err := conn.Write(v2frame(opRead, 4, region, 0, 4096, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readReply(t, conn, 4), page) {
		t.Fatal("the WRITE whose payload came in two parts did not land")
	}
}
