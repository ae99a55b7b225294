package memcluster

import (
	"bytes"
	"runtime"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memnode"
)

// verbOps is one node client's completed wire ops, by verb.
type verbOps struct{ read, readv, write, writev uint64 }

func opsOf(c *memnode.Client) verbOps {
	m := c.Metrics()
	return verbOps{m.Read.Ops, m.ReadV.Ops, m.Write.Ops, m.WriteV.Ops}
}

func (a verbOps) minus(b verbOps) verbOps {
	return verbOps{a.read - b.read, a.readv - b.readv, a.write - b.write, a.writev - b.writev}
}

// TestSettleIsBatched counts the wire ops of the pass every op waits
// behind. K pages of one region are written while a resync's copy is
// under way, so the copy's settle finds them in its dirty log; it must
// move them as the bulk copy moves pages, a batch per READV and WRITEV,
// with no single-page verb.
//
// The write lands inside the copy by construction, not by timing: the
// copy snapshots the region table right after it opens its dirty log,
// and the test holds the table's lock until it has written.
func TestSettleIsBatched(t *testing.T) {
	const (
		page   = int64(4096)
		npages = int64(600) // one batch (1024 pages at 4 KiB) holds the region
		k      = 300
	)
	newServer := func(addr string) *memnode.Server {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			srv, err := memnode.NewServer(addr, 64<<20)
			if err == nil {
				t.Cleanup(func() { srv.Close() })
				return srv
			}
			if time.Now().After(deadline) {
				t.Fatalf("listen on %s: %v", addr, err)
			}
			runtime.Gosched() // a rebind can race the dying listener
		}
	}
	opts := Options{
		PageBytes:       page,
		ProbeInterval:   5 * time.Millisecond,
		ProbeBackoffMax: 20 * time.Millisecond,
		DisableProber:   true,
		Node: memnode.Options{
			DialTimeout: 250 * time.Millisecond, IOTimeout: time.Second, MaxAttempts: 2,
			BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		},
	}
	body := func(p int64, version byte) []byte {
		return bytes.Repeat([]byte{byte(p)*5 ^ version}, int(page))
	}
	// writeDuring runs start, which may set off a copy, with the copy
	// stalled right behind its dirty log opening (open reports that):
	// there it writes version 2 of pages 0..k-1 the way WriteV would, and
	// lets the copy run to its end. It reports whether there was a copy.
	writeDuring := func(cl *Cluster, handle uint64, start func(), open func() bool) bool {
		t.Helper()
		reg, err := cl.region(handle)
		if err != nil {
			t.Fatal(err)
		}
		cl.regMu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			start()
		}()
		for !open() {
			select {
			case <-done:
				cl.regMu.Unlock()
				return false
			default:
				runtime.Gosched()
			}
		}
		offs, bufs := make([]int64, k), make([][]byte, k)
		for p := range offs {
			offs[p], bufs[p] = int64(p)*page, body(int64(p), 2)
		}
		parts, err := cl.route(nil, reg, handle, offs, bufs)
		for _, p := range parts {
			sh := cl.shards[p.si]
			if err == nil {
				err = wait(func(end func(error)) {
					cl.startReplicate(sh, p.si, holders(sh, reg, nil), handle, p.offs, func(g rung, hook func(error)) {
						g.c.StartWriteV(g.h, p.offs, p.bufs, hook)
					}, end)
				})
			}
		}
		cl.regMu.Unlock()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return true
	}
	fill := func(cl *Cluster) uint64 {
		t.Helper()
		h, err := cl.Register(npages * page)
		if err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < npages; p++ {
			if err := cl.Write(h, p*page, body(p, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	// holds checks that the node behind g has every page at its latest
	// version, asking the node itself.
	holds := func(g rung, reg *cregion) {
		t.Helper()
		h, _ := reg.handle(g.r)
		for p := int64(0); p < npages; p++ {
			version := byte(1)
			if p < k {
				version = 2
			}
			got, err := g.c.Read(h, p*page, page)
			if err != nil {
				t.Fatalf("%s page %d: %v", g.r.addr, p, err)
			}
			if !bytes.Equal(got, body(p, version)) {
				t.Fatalf("%s page %d is not at version %d", g.r.addr, p, version)
			}
			memnode.PutBuf(got)
		}
	}

	t.Run("resync", func(t *testing.T) {
		a, b := newServer("127.0.0.1:0"), newServer("127.0.0.1:0")
		cl, err := New([][]string{{a.Addr(), b.Addr()}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		handle := fill(cl)
		sh := cl.shards[0]
		src, dst := dialled(sh)[0], dialled(sh)[1]
		b.Close()
		for cl.Stats().PerShard[0].Replicas[1].Healthy {
			cl.ProbeNow()
		}
		newServer(b.Addr())
		src0, dst0 := opsOf(src.c), opsOf(dst.c)
		// A sweep that finds the replica still backing off starts no copy.
		for !writeDuring(cl, handle, cl.ProbeNow, func() bool { return sh.resyncCount.Load() > 0 }) {
		}
		if cl.Stats().Readmissions != 1 {
			t.Fatalf("the resync did not re-admit the replica: %+v", cl.Stats())
		}
		// The bulk copy is one batch, the settle of k dirty pages one more.
		if got, want := opsOf(src.c).minus(src0), (verbOps{readv: 2, writev: 1}); got != want {
			t.Errorf("source %+v, want %+v (its one WRITEV is the test's own)", got, want)
		}
		if got, want := opsOf(dst.c).minus(dst0), (verbOps{writev: 2}); got != want {
			t.Errorf("target %+v, want %+v", got, want)
		}
		if got := cl.Stats().ResyncedPages; got != uint64(npages+k) {
			t.Errorf("copied %d pages, want %d in bulk and %d settled", got, npages, k)
		}
		reg, _ := cl.region(handle)
		holds(dst, reg)
	})
}
