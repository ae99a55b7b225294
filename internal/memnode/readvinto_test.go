package memnode

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// cutProxy stands in front of a memnode. Once armed, the connection that
// is open at that moment forwards only the next cut bytes the server
// sends and then hangs up — mid-body, when cut ends inside a response.
// Connections dialed after that are forwarded faithfully.
type cutProxy struct {
	ln    net.Listener
	armed atomic.Bool
	cut   int
	done  chan struct{} // closed when the cut connection has hung up
}

func newCutProxy(t *testing.T, upstream string, cut int) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, cut: cut, done: make(chan struct{})}
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

func (p *cutProxy) forward(cli net.Conn, upstream string) {
	defer cli.Close()
	up, err := net.Dial("tcp", upstream)
	if err != nil {
		return
	}
	defer up.Close()
	go io.Copy(up, cli) // ends when either side is closed
	buf := make([]byte, 32<<10)
	left := -1 // bytes this connection may still forward; -1: not the cut one
	for {
		n, err := up.Read(buf)
		if left < 0 && p.armed.CompareAndSwap(true, false) {
			left = p.cut
		}
		if left >= 0 && n >= left {
			cli.Write(buf[:left])
			cli.Close()
			close(p.done)
			return
		}
		if left >= 0 {
			left -= n
		}
		if n > 0 {
			cli.Write(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

func stampedPages(n int) []byte {
	b := make([]byte, n*4096)
	for i := range b {
		b[i] = byte(i/4096*37 + i%251)
	}
	return b
}

// TestReadVIntoCutMidBody kills the TCP connection one and a half pages
// into a four-page READV response. With retries the call re-issues on a
// fresh connection and lands the right bytes in the same buffers. With
// a single attempt it fails, and from the moment it has returned the
// buffers are the caller's again: the test scribbles over them at once,
// which under -race convicts any reader of the dead stream that is
// still scattering into them.
func TestReadVIntoCutMidBody(t *testing.T) {
	for _, attempts := range []int{4, 1} {
		srv, err := NewServer("127.0.0.1:0", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		proxy := newCutProxy(t, srv.Addr(), v2RespHdrLen+4096+2048)
		opts := fastOpts()
		opts.MaxAttempts = attempts
		opts.Transport = TransportTCP
		c, err := DialOptions(proxy.ln.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		want := stampedPages(4)
		offs := []int64{0, 3 * 4096, 9 * 4096, 4 * 4096}
		for i, off := range offs {
			if err := c.Write(id, off, want[i*4096:(i+1)*4096]); err != nil {
				t.Fatal(err)
			}
		}
		buf := bytes.Repeat([]byte{0xEE}, 4*4096)
		dst := SplitPages(buf, 4096)

		proxy.armed.Store(true)
		err = c.ReadVInto(id, offs, dst)
		<-proxy.done
		if attempts == 1 {
			if err == nil {
				t.Fatal("a READV cut mid-body succeeded without a retry")
			}
			for i := range buf {
				buf[i] = 0x55
			}
			time.Sleep(20 * time.Millisecond) // room for a stray write to land
			if !bytes.Equal(buf, bytes.Repeat([]byte{0x55}, len(buf))) {
				t.Fatal("the dead stream wrote into dst after the call had failed")
			}
		} else {
			if err != nil {
				t.Fatalf("READV cut mid-body, %d attempts: %v", attempts, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatal("the retry landed the wrong bytes")
			}
			if m := c.Metrics(); m.Retries == 0 || m.Reconnects == 0 || m.ReadV.Ops != 1 {
				t.Errorf("retries=%d reconnects=%d readv ops=%d; want a retried, reconnected, single READV", m.Retries, m.Reconnects, m.ReadV.Ops)
			}
		}
		c.Close()
		srv.Close()
	}
}

// TestReadVIntoLengthMismatchPoisons: a READV answered with fewer bytes
// than its buffers hold is not scattered short. The buffers stay as they
// were, the call fails, and so does the stream — the read issued beside
// it on the same connection, which the server never answers, fails with
// it instead of waiting out its deadline.
func TestReadVIntoLengthMismatchPoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
				// Answer whichever of ids 1 and 2 is the READV — one page
				// for its two — and hold the connection open.
				for {
					var rh [v2ReqHdrLen]byte
					if _, err := io.ReadFull(conn, rh[:]); err != nil {
						return
					}
					n := binary.LittleEndian.Uint64(rh[25:])
					if rh[0] != opReadV {
						continue
					}
					io.CopyN(io.Discard, conn, int64(n))
					conn.Write(v2respFrame(statusOK, binary.LittleEndian.Uint64(rh[1:]), make([]byte, 4096)))
				}
			}()
		}
	}()
	opts := fastOpts()
	opts.MaxAttempts = 1
	opts.IOTimeout = 30 * time.Second // the test must not pass by timing out
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	beside := c.ReadAsync(1, 0, 4096)
	buf := bytes.Repeat([]byte{0xEE}, 2*4096)
	start := time.Now()
	err = c.ReadVInto(1, []int64{0, 4096}, SplitPages(buf, 4096))
	if err == nil || !strings.Contains(err.Error(), "readv response of 4096 bytes for 8192") {
		t.Fatalf("short READV response: err = %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, len(buf))) {
		t.Error("a short response was scattered into dst")
	}
	if _, err := beside.Wait(); err == nil {
		t.Error("the read beside the bad READV succeeded on a stream that should be poisoned")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the stream was not poisoned: its other call failed only after %v", d)
	}
}

// TestReadVIntoShapes: what ReadVInto rejects before it touches the wire,
// and that it agrees with ReadV and with single reads on both transports.
func TestReadVIntoShapes(t *testing.T) {
	for _, transport := range []int{TransportTCP, TransportShm} {
		if transport == TransportShm && !ShmSupported {
			continue
		}
		opts := fastOpts()
		opts.Transport = transport
		srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: transport == TransportShm})
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		want := stampedPages(3)
		offs := []int64{8192, 0, 40960}
		if err := c.WriteV(id, offs, SplitPages(want, 4096)); err != nil {
			t.Fatal(err)
		}
		// Pages of different sizes in one batch.
		got := make([]byte, 4096+512+4096)
		dst := [][]byte{got[:4096], got[4096 : 4096+512], got[4096+512:]}
		if err := c.ReadVInto(id, offs, dst); err != nil {
			t.Fatalf("%s: %v", c.TransportKind(), err)
		}
		if !bytes.Equal(dst[0], want[:4096]) || !bytes.Equal(dst[1], want[4096:4096+512]) || !bytes.Equal(dst[2], want[8192:]) {
			t.Errorf("%s: ReadVInto landed the wrong bytes", c.TransportKind())
		}
		pages, err := c.ReadV(id, offs, 4096)
		if err != nil || !bytes.Equal(bytes.Join(pages, nil), want) {
			t.Errorf("%s: ReadV = %v, wrong bytes or error", c.TransportKind(), err)
		}
		for name, bad := range map[string]struct {
			offs []int64
			dst  [][]byte
		}{
			"no pages":        {nil, nil},
			"counts differ":   {offs, dst[:2]},
			"an empty buffer": {offs, [][]byte{got[:4096], nil, got[4096:]}},
			"too many pages":  {make([]int64, MaxBatchPages+1), make([][]byte, MaxBatchPages+1)},
		} {
			if err := c.ReadVInto(id, bad.offs, bad.dst); err == nil {
				t.Errorf("%s: ReadVInto accepted %s", c.TransportKind(), name)
			}
		}
		c.Close()
		srv.Close()
	}
}

// TestReadVIntoRecyclesCalls: a healthy TCP stream hands every call
// struct back to the pool — the writer's release and the reader's
// completion both happen — so a batched read costs the client no call,
// descriptor, vector or body allocation, whatever the batch size. The
// in-process server's one (the parsed descriptors; its payload buffer and
// the box it goes back to the pool in are recycled) is in the count, and
// does not grow with the batch either.
func TestReadVIntoRecyclesCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations swamp the count")
	}
	srv, err := NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := fastOpts()
	opts.Transport = TransportTCP
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	perBatch := func(pages int) float64 {
		offs := make([]int64, pages)
		for i := range offs {
			offs[i] = int64(i) * 4096
		}
		dst := SplitPages(make([]byte, pages*4096), 4096)
		return testing.AllocsPerRun(300, func() {
			if err := c.ReadVInto(id, offs, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perBatch(4), perBatch(64)
	if small > 1.5 || large > small+0.5 {
		t.Errorf("ReadVInto costs %.1f allocations for 4 pages and %.1f for 64; want the server's 1 for both", small, large)
	}
}

// TestWriteVRecyclesCalls: the evictor's batched write costs the client
// nothing either — its descriptor table, payload vector and parsed
// descriptors live in the pooled call like READV's — on TCP or on the
// file link, whatever the batch size. What is counted over TCP is the
// in-process server's: the parsed descriptors; the file link's server
// sees none of it.
func TestWriteVRecyclesCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations swamp the count")
	}
	for _, transport := range []int{TransportTCP, TransportShm} {
		if transport == TransportShm && !ShmSupported {
			continue
		}
		srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: transport == TransportShm})
		if err != nil {
			t.Fatal(err)
		}
		opts := fastOpts()
		opts.Transport = transport
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		perBatch := func(pages int) float64 {
			offs := make([]int64, pages)
			for i := range offs {
				offs[i] = int64(i) * 4096
			}
			src := SplitPages(make([]byte, pages*4096), 4096)
			return testing.AllocsPerRun(300, func() {
				if err := c.WriteV(id, offs, src); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := perBatch(4), perBatch(64)
		if server := map[int]float64{TransportTCP: 1, TransportShm: 0}[transport]; small > server+0.5 || large > small+0.5 {
			t.Errorf("%s: WriteV costs %.1f allocations for 4 pages and %.1f for 64; want the server's %.0f for both", c.TransportKind(), small, large, server)
		}
		c.Close()
		srv.Close()
	}
}

// TestOnePageReadVIntoIsARead: a ReadVInto of one page goes out as a
// READ of that page, with no descriptor table, and its body lands in the
// caller's buffer. On the wire, a peer sees the READ's header and nothing
// after it. On either link, the server counts what it counts for a Read
// of the page, the client counts a ReadV, and the call allocates nothing.
func TestOnePageReadVIntoIsARead(t *testing.T) {
	want := stampedPages(1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seen := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if answerHello(conn) != nil {
			return
		}
		var hdr [v2ReqHdrLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		seen <- hdr[:]
		var resp [v2RespHdrLen]byte
		resp[0] = statusOK
		copy(resp[1:9], hdr[1:9])
		binary.LittleEndian.PutUint64(resp[9:], 4096)
		conn.Write(append(resp[:], want...))
		io.Copy(io.Discard, conn) // a table after the header would be read here, and answered never
	}()
	opts := fastOpts()
	opts.Transport = TransportTCP
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dst := [][]byte{make([]byte, 4096)}
	if err := c.ReadVInto(7, []int64{8192}, dst); err != nil {
		t.Fatal(err)
	}
	hdr := <-seen
	if op, off, n := hdr[0], binary.LittleEndian.Uint64(hdr[17:]), binary.LittleEndian.Uint64(hdr[25:]); op != opRead || off != 8192 || n != 4096 {
		t.Errorf("the wire carried op %d at %d for %d bytes; want a READ (%d) of 4096 at 8192", op, off, n, opRead)
	}
	if !bytes.Equal(dst[0], want) {
		t.Error("the body did not land in the caller's buffer")
	}
	c.Close()

	for _, transport := range []int{TransportTCP, TransportShm} {
		if transport == TransportShm && !ShmSupported {
			continue
		}
		srv, err := NewServerOptions("127.0.0.1:0", 16<<20, ServerOptions{EnableShm: transport == TransportShm})
		if err != nil {
			t.Fatal(err)
		}
		opts := fastOpts()
		opts.Transport = transport
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		kind := c.TransportKind()
		if err := c.Write(id, 8192, want); err != nil {
			t.Fatal(err)
		}
		stat := func() Stats {
			t.Helper()
			st, err := c.Stat()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		s0 := stat()
		body, err := c.Read(id, 8192, 4096)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(body)
		s1, m1 := stat(), c.Metrics()
		offs, dst := []int64{8192}, [][]byte{make([]byte, 4096)}
		if err := c.ReadVInto(id, offs, dst); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s2, m2 := stat(), c.Metrics()
		if s2.ReadOps-s1.ReadOps != s1.ReadOps-s0.ReadOps || s2.BytesRead-s1.BytesRead != s1.BytesRead-s0.BytesRead {
			t.Errorf("%s: the server counted %d ops, %d bytes for the ReadVInto and %d, %d for the Read", kind,
				s2.ReadOps-s1.ReadOps, s2.BytesRead-s1.BytesRead, s1.ReadOps-s0.ReadOps, s1.BytesRead-s0.BytesRead)
		}
		if rv, r := m2.ReadV, m2.Read; rv.Ops-m1.ReadV.Ops != 1 || rv.Bytes-m1.ReadV.Bytes != 4096 || r != m1.Read {
			t.Errorf("%s: the client counted ReadV %+v → %+v and Read %+v → %+v; want one ReadV of 4096 bytes", kind, m1.ReadV, rv, m1.Read, r)
		}
		if !bytes.Equal(dst[0], want) {
			t.Errorf("%s: the page did not land in the caller's buffer", kind)
		}
		if !raceEnabled {
			if n := testing.AllocsPerRun(200, func() {
				if err := c.ReadVInto(id, offs, dst); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: a one-page ReadVInto costs %.2f allocations, want 0", kind, n)
			}
		}
		c.Close()
		srv.Close()
	}
}
