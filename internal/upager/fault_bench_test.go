package upager

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// BenchmarkPagerFault is the demand-fault path and nothing else: one
// goroutine pins its way round a region eight times the arena, read-only,
// so every Pin is a major fault over a real
// client — TCP or the file link to an in-process memnode, or a 2 × 2
// memcluster of in-process memnodes with its prober off — and every
// eviction a clean drop. Every page is written and flushed first, so a
// fault reads the wire rather than clearing a frame; zero-fills/fault
// says so, at 0. /zero is the same loop over a fresh region on TCP, where
// every fault is a zero-fill (1) and the wire is silent. Besides
// faults/s it reports what a fault costs beyond the round trip it cannot
// avoid:
//
//   - allocs/fault: the process's allocations per fault less its
//     allocations per bare synchronous Read of one memnode.Client on the
//     same link (on the cluster, on one replica), measured just before —
//     that is the in-process server's share, which a fault pays as well.
//     What is left is the client stack's, and it is nothing: a fault with
//     a free frame reads its page straight into it, through lists the
//     pager keeps per frame, and on the cluster the replica ladder and
//     the request's one part are on the reader's stack. What the mean
//     shows is the pools the collector emptied. /zero reads nothing, so
//     nothing is taken off.
//   - goroutines/fault: goroutines started per fault, read off the
//     runtime's goroutine ids, which it hands out in order of creation.
//     Each P takes ids sixteen at a time, so the count can be off by
//     sixteen per P whatever the number of faults: run it with
//     -benchtime 20000x or more, where that is under 0.002.
//
// `make bench` holds both on all four: at most 0.05 allocations per
// fault (0.1 on the cluster), no goroutine (cmd/benchsnap -require); and
// zero-fills/fault at 0 on the three wires, at 1 on /zero.
func BenchmarkPagerFault(b *testing.B) {
	b.Run("tcp", func(b *testing.B) { benchNodeFault(b, memnode.TransportTCP, true) })
	b.Run("shm", func(b *testing.B) { benchNodeFault(b, memnode.TransportShm, true) })
	b.Run("cluster", benchClusterFault)
	b.Run("zero", func(b *testing.B) { benchNodeFault(b, memnode.TransportTCP, false) })
}

// benchNodeFault runs the benchmark over a client of one in-process
// memnode, over pages written back first when stored is set.
func benchNodeFault(b *testing.B, transport int, stored bool) {
	srv, err := memnode.NewServerOptions("127.0.0.1:0", 256<<20, memnode.ServerOptions{EnableShm: transport == memnode.TransportShm})
	if err != nil {
		b.Skipf("no server for this transport: %v", err)
	}
	defer srv.Close()
	c, err := memnode.DialOptions(srv.Addr(), memnode.Options{Transport: transport})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	node := c // the server's share of a read
	if !stored {
		node = nil
	}
	benchPagerFault(b, c, node)
}

func benchClusterFault(b *testing.B) {
	addrs := make([][]string, 2) // two shards of two replicas
	for i := 0; i < 4; i++ {
		srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i/2] = append(addrs[i/2], srv.Addr())
	}
	cl, err := memcluster.New(addrs, memcluster.Options{DisableProber: true})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	replica, err := memnode.Dial(addrs[0][0])
	if err != nil {
		b.Fatal(err)
	}
	defer replica.Close()
	benchPagerFault(b, cl, replica)
}

// benchPagerFault runs the benchmark over backing; node is a client of
// one of the servers behind it, whose bare Read is the server's share.
// With node nil the region is left fresh, every fault a zero-fill with
// no server share.
func benchPagerFault(b *testing.B, backing Backing, node *memnode.Client) {
	const frames, pages = 1024, 8 * 1024
	p, err := New(backing, pages, frames, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if node != nil {
		for pg := uint64(0); pg < pages; pg++ { // every page stored: faults read
			fr, err := p.Pin(pg, true)
			if err != nil {
				b.Fatal(err)
			}
			fr.Unpin()
		}
		if err := p.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	next := uint64(0)
	fault := func() {
		fr, err := p.Pin(next%pages, false)
		if err != nil {
			b.Fatal(err)
		}
		fr.Unpin()
		next++
	}
	for i := 0; i < 2*frames; i++ { // fill the arena: from here on a fault evicts
		fault()
	}
	perRead := 0.0
	if node != nil {
		const probe = 2048
		h, err := node.Register(probe * 4096)
		if err != nil {
			b.Fatal(err)
		}
		m0 := mallocs()
		for i := 0; i < probe; i++ {
			body, err := node.Read(h, int64(i)*4096, 4096)
			if err != nil {
				b.Fatal(err)
			}
			memnode.PutBuf(body)
		}
		perRead = float64(mallocs()-m0) / probe
	}

	before := p.Stats()
	m0, g0 := mallocs(), newGoroutineID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault()
	}
	b.StopTimer()
	m1, g1 := mallocs(), newGoroutineID()
	after := p.Stats()
	if n := after.Faults - before.Faults; n != uint64(b.N) || after.Hits != before.Hits {
		b.Fatalf("%d pins made %d faults and %d hits", b.N, n, after.Hits-before.Hits)
	}
	n := float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "faults/s")
	b.ReportMetric(max(0, float64(m1-m0)/n-perRead), "allocs/fault")
	// Signed: probes that draw from different Ps' id caches can read g1
	// below g0, which an unsigned difference wraps to ~1.8e19.
	b.ReportMetric(max(0, float64(int64(g1-g0)-1))/n, "goroutines/fault")
	b.ReportMetric(float64(after.FrameWaits-before.FrameWaits)/n, "frame-waits/fault")
	b.ReportMetric(float64(after.ZeroFills-before.ZeroFills)/n, "zero-fills/fault")
}

// BenchmarkPinHit is the other path, the one nine pins in ten take on
// the ladder and every pin on kv-local: Pin and Unpin of a resident
// page, one goroutine, nothing under the pager but memory. Recording the
// pin for the selection is one store under the lock Pin already holds;
// `make bench` holds allocs/op at 0 and ns/op under 250, several times
// the 68 ns measured before and after (noisy runners), which a second
// lock or a map on this path would still break.
func BenchmarkPinHit(b *testing.B) {
	const frames = 1024
	p, err := New(newFakeBacking(), 8*frames, frames, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pin := func(pg uint64) {
		fr, err := p.Pin(pg, false)
		if err != nil {
			b.Fatal(err)
		}
		fr.Unpin()
	}
	const set = frames / 2 // resident, and left alone by the evictor
	for pg := uint64(0); pg < set; pg++ {
		pin(pg)
	}
	before := p.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pin(uint64(i) % set)
	}
	b.StopTimer()
	if after := p.Stats(); after.Faults != before.Faults || after.Hits-before.Hits != uint64(b.N) {
		b.Fatalf("%d pins made %d faults and %d hits", b.N, after.Faults-before.Faults, after.Hits-before.Hits)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// newGoroutineID starts a goroutine and returns its id.
func newGoroutineID() uint64 {
	ch := make(chan uint64)
	go func() {
		var buf [64]byte
		// "goroutine 123 [running]:..."
		fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
		id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
		ch <- id
	}()
	return <-ch
}
