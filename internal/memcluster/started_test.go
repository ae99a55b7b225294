package memcluster_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// farMemory is what the pager asks of a far store — a region, a batch
// read now or started with a hook, a batch written — and Close.
type farMemory interface {
	Register(size int64) (uint64, error)
	ReadVInto(handle uint64, offsets []int64, dst [][]byte) error
	StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error))
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
	Close() error
}

// started is one started read: its hook's runs, whether the first of
// them came before StartReadVInto returned, and what it was told.
type started struct {
	runs   atomic.Int32
	inline bool
	ended  chan error
}

func startRead(b farMemory, h uint64, offs []int64, dst [][]byte) *started {
	s := &started{ended: make(chan error, 2)}
	b.StartReadVInto(h, offs, dst, func(err error) {
		s.runs.Add(1)
		s.ended <- err
	})
	s.inline = s.runs.Load() > 0
	return s
}

func (s *started) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-s.ended:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("a started read's hook never ran")
		return nil
	}
}

// batch is pages of version 3 at their offsets, and their bytes in order.
func batch(pages ...int64) (offs []int64, want []byte) {
	for _, p := range pages {
		offs = append(offs, p*testPage)
		want = append(want, pageBody(p, 3)...)
	}
	return offs, want
}

// TestStartedReadConformance puts the started read through one table
// over the three far stores the pager runs on — a Client over TCP, a
// Client over the file link, a 2 × 2 Cluster — against its synchronous
// twin: the same bytes land in the caller's buffers, the hook runs
// exactly once, a request refused on the spot has run it by the time
// StartReadVInto returns, and after Close the read ends in the store's
// ErrClosed. Two more rows are the cluster's own: a ladder whose first
// rung dies, and 256 reads in flight on a healthy one.
func TestStartedReadConformance(t *testing.T) {
	node := func(t *testing.T, transport int) farMemory {
		srv, err := memnode.NewServerOptions("127.0.0.1:0", 64<<20, memnode.ServerOptions{EnableShm: transport == memnode.TransportShm})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := memnode.DialOptions(srv.Addr(), memnode.Options{Transport: transport})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	rows := []struct {
		name   string
		shm    bool
		dial   func(t *testing.T) farMemory
		closed error
	}{
		{name: "client/tcp", dial: func(t *testing.T) farMemory { return node(t, memnode.TransportTCP) }, closed: memnode.ErrClosed},
		{name: "client/file", shm: true, dial: func(t *testing.T) farMemory { return node(t, memnode.TransportShm) }, closed: memnode.ErrClosed},
		{name: "cluster/2x2", dial: func(t *testing.T) farMemory {
			_, addrs := startServers(t, 2, 2)
			cl, err := memcluster.New(addrs, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}, closed: memcluster.ErrClosed},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.shm && !memnode.ShmSupported {
				t.Skip("no file link on this platform")
			}
			b := row.dial(t)
			h, err := b.Register(testPages * testPage)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int64, testPages)
			for p := range all {
				all[p] = int64(p)
			}
			offs, want := batch(all...)
			if err := b.WriteV(h, offs[:32], memnode.SplitPages(want[:32*testPage], testPage)); err != nil {
				t.Fatal(err)
			}
			if err := b.WriteV(h, offs[32:], memnode.SplitPages(want[32*testPage:], testPage)); err != nil {
				t.Fatal(err)
			}

			var reads []*started
			for _, pages := range [][]int64{{5, 1, 30, 17, 2, 44}, {9}} { // a batch, and a fault's one page
				offs, want := batch(pages...)
				got := bytes.Repeat([]byte{0xEE}, len(want))
				s := startRead(b, h, offs, memnode.SplitPages(got, testPage))
				reads = append(reads, s)
				if err := s.wait(t); err != nil {
					t.Fatalf("started read of %v: %v", pages, err)
				}
				twin := bytes.Repeat([]byte{0xEE}, len(want))
				if err := b.ReadVInto(h, offs, memnode.SplitPages(twin, testPage)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || !bytes.Equal(twin, want) {
					t.Errorf("pages %v: the started read and ReadVInto filled other bytes than were written", pages)
				}
			}

			refused := startRead(b, h, offs[:2], memnode.SplitPages(make([]byte, testPage), testPage))
			reads = append(reads, refused)
			if !refused.inline {
				t.Error("a read refused on the spot had not run its hook when StartReadVInto returned")
			}
			if err := refused.wait(t); err == nil {
				t.Error("two offsets into one buffer were not refused")
			}

			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			late := startRead(b, h, offs[:1], memnode.SplitPages(make([]byte, testPage), testPage))
			reads = append(reads, late)
			if err := late.wait(t); !errors.Is(err, row.closed) {
				t.Errorf("a read started after Close ended in %v, want %v", err, row.closed)
			}
			for i, s := range reads {
				if n := s.runs.Load(); n != 1 {
					t.Errorf("read %d ran its hook %d times", i, n)
				}
			}
		})
	}
	t.Run("cluster/first-rung-dies", startedReadFailsOver)
	t.Run("cluster/256-in-flight", startedReadsSpawnNothing)
}

// startedReadFailsOver is the started twin of
// TestReadVIntoFailsOverIntoSameBuffers: the replica the ladder tries
// first dies a page and a half into the batch's response, and the
// second replica, climbed on from the failed rung's hook, fills the same
// buffers, whole.
func startedReadFailsOver(t *testing.T) {
	_, addrs := startServers(t, 1, 2)
	var armed atomic.Bool
	proxies := make([]*dyingProxy, 2)
	fronted := [][]string{make([]string, 2)}
	for i, a := range addrs[0] {
		proxies[i] = startDyingProxy(t, a, &armed, int(17+testPage+testPage/2)) // a v2 response header, then a page and a half
		fronted[0][i] = proxies[i].ln.Addr().String()
	}
	opts := testOpts()
	opts.Node.Transport = memnode.TransportTCP
	cl, err := memcluster.New(fronted, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 3)

	offs, want := batch(5, 1, 30, 17, 2, 44)
	buf := bytes.Repeat([]byte{0xEE}, len(want))
	armed.Store(true)
	s := startRead(cl, h, offs, memnode.SplitPages(buf, testPage))
	if err := s.wait(t); err != nil {
		t.Fatalf("started batch across a dying replica: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("the surviving replica did not fill the buffers the dead one had started on")
	}
	if !proxies[0].died.Load() && !proxies[1].died.Load() {
		t.Fatal("no replica died: the batch never crossed the cut")
	}
	if st := cl.Stats(); st.Failovers == 0 {
		t.Errorf("stats show no failover: %+v", st)
	}
	if n := s.runs.Load(); n != 1 {
		t.Errorf("the hook ran %d times", n)
	}
}

// heldWire is a gate every replica's answers pass: while it is shut,
// what the servers send waits in the proxies.
type heldWire struct {
	mu   sync.Mutex
	gate chan struct{} // nil while open
}

func (w *heldWire) shut() {
	w.mu.Lock()
	w.gate = make(chan struct{})
	w.mu.Unlock()
}

func (w *heldWire) open() {
	w.mu.Lock()
	close(w.gate)
	w.gate = nil
	w.mu.Unlock()
}

func (w *heldWire) front(t *testing.T, upstream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
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
					w.mu.Lock()
					gate := w.gate
					w.mu.Unlock()
					if gate != nil {
						<-gate
					}
					if _, werr := cli.Write(buf[:n]); werr != nil || err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// startedReadsSpawnNothing: on a healthy cluster a started read is
// started by its caller and ended by the node client's completer, with
// no goroutine between — 256 of them in flight, their answers held on
// the wire, leave the goroutine count where it was, as in memnode's
// TestAsyncOpsSpawnNothing — and each ends once, with the pages it asked
// for.
func startedReadsSpawnNothing(t *testing.T) {
	_, addrs := startServers(t, 2, 2)
	var wire heldWire
	for _, shard := range addrs {
		for i, a := range shard {
			shard[i] = wire.front(t, a)
		}
	}
	opts := testOpts()
	opts.Node.Transport = memnode.TransportTCP
	opts.Node.Window = 1024
	opts.Node.IOTimeout = 30 * time.Second // nothing here may pass by timing out
	cl, err := memcluster.New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 3) // every replica's link is up

	const n = 256
	wire.shut()
	base := runtime.NumGoroutine()
	reads := make([]*started, n)
	bufs := make([][]byte, n)
	for i := range reads {
		bufs[i] = make([]byte, testPage)
		reads[i] = startRead(cl, h, []int64{int64(i) % testPages * testPage}, [][]byte{bufs[i]})
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines with %d started reads in flight, %d before", got, n, base)
	}
	for i, s := range reads {
		if s.inline {
			t.Fatalf("read %d ended inside its start with the wire held", i)
		}
	}
	wire.open()
	for i, s := range reads {
		if err := s.wait(t); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(bufs[i], pageBody(int64(i)%testPages, 3)) {
			t.Fatalf("read %d filled other bytes than page %d's", i, int64(i)%testPages)
		}
	}
	for i, s := range reads {
		if n := s.runs.Load(); n != 1 {
			t.Errorf("read %d ran its hook %d times", i, n)
		}
	}
}
