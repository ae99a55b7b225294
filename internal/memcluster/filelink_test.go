package memcluster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memnode"
)

// TestFileLinkReplicaChaos: one shard whose two replicas negotiate
// their links on their own — one a same-host node that offers the file
// link, the other TCP only — so that one ladder mixes the two. The
// file-link node is killed mid-sweep and restarted: no read fails (the
// ladder fails over to the TCP replica), the restarted node is re-admitted
// after a resync over the file link again, and with the TCP replica
// killed in its turn every page reads back, version 2, from it.
func TestFileLinkReplicaChaos(t *testing.T) {
	if !memnode.ShmSupported {
		t.Skip("no file link on this platform")
	}
	const (
		page   = int64(4096)
		npages = int64(64)
	)
	start := func(addr string, shm bool) *memnode.Server {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			srv, err := memnode.NewServerOptions(addr, 64<<20, memnode.ServerOptions{EnableShm: shm})
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
	fileNode, tcpNode := start("127.0.0.1:0", true), start("127.0.0.1:0", false)
	cl, err := New([][]string{{fileNode.Addr(), tcpNode.Addr()}}, Options{
		PageBytes:       page,
		ProbeInterval:   5 * time.Millisecond,
		ProbeBackoffMax: 20 * time.Millisecond,
		DisableProber:   true,
		Node: memnode.Options{
			DialTimeout: 250 * time.Millisecond, IOTimeout: time.Second, MaxAttempts: 2,
			BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kinds := func() []string {
		sh := cl.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		var ks []string
		for _, r := range sh.replicas {
			ks = append(ks, r.c.TransportKind())
		}
		return ks
	}
	body := func(p int64, version byte) []byte {
		return bytes.Repeat([]byte{byte(p)*3 ^ version}, int(page))
	}
	h, err := cl.Register(npages * page)
	if err != nil {
		t.Fatal(err)
	}
	writeAll := func(version byte) {
		for p := int64(0); p < npages; p++ {
			if err := cl.Write(h, p*page, body(p, version)); err != nil {
				t.Fatalf("write page %d: %v", p, err)
			}
		}
	}
	writeAll(1)
	if ks := kinds(); ks[0] != "shm" || ks[1] != "tcp-v2" {
		t.Fatalf("replica links %v, want [shm tcp-v2]", ks)
	}

	var reads atomic.Int64
	var sweepErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				for p := int64(0); p < npages; p++ {
					got, err := cl.Read(h, p*page, page)
					if err != nil {
						sweepErr.CompareAndSwap(nil, fmt.Errorf("read page %d: %w", p, err))
						return
					}
					ok := bytes.Equal(got, body(p, 1))
					memnode.PutBuf(got)
					if !ok {
						sweepErr.CompareAndSwap(nil, fmt.Errorf("page %d corrupt", p))
						return
					}
					reads.Add(1)
				}
			}
		}()
	}
	for reads.Load() < npages {
		runtime.Gosched()
	}
	addr := fileNode.Addr()
	fileNode.Close()
	wg.Wait()
	if err, _ := sweepErr.Load().(error); err != nil {
		t.Fatalf("a read failed while the file-link replica was down: %v", err)
	}

	writeAll(2) // the TCP replica carries these alone
	start(addr, true)
	for deadline := time.Now().Add(15 * time.Second); cl.Stats().Readmissions == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the file-link replica was not re-admitted: %+v", cl.Stats())
		}
		cl.ProbeNow()
	}
	tcpNode.Close()
	for p := int64(0); p < npages; p++ {
		got, err := cl.Read(h, p*page, page)
		if err != nil || !bytes.Equal(got, body(p, 2)) {
			t.Fatalf("page %d from the re-admitted file-link replica: %v", p, err)
		}
		memnode.PutBuf(got)
	}
	if ks := kinds(); ks[0] != "shm" {
		t.Errorf("the re-admitted replica's link is %q, want shm", ks[0])
	}
	if st := cl.Stats(); st.Failovers == 0 || st.Readmissions == 0 || st.ResyncedPages == 0 {
		t.Errorf("failovers %d, readmissions %d, resynced pages %d: want all three", st.Failovers, st.Readmissions, st.ResyncedPages)
	}
}
