package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// newTestCache spawns an in-process memnode and a cache over it.
func newTestCache(t testing.TB, heapPages uint64, frames int) *Cache {
	t.Helper()
	srv, err := memnode.NewServer("127.0.0.1:0", 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := memnode.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cache, err := NewCache(c, heapPages, frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	return cache
}

func TestCacheBasic(t *testing.T) {
	c := newTestCache(t, 256, 64)
	if _, ok, err := c.Get("absent"); err != nil || ok {
		t.Fatalf("get absent = ok=%v err=%v", ok, err)
	}
	if err := c.Set("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("a")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get a = %q ok=%v err=%v", v, ok, err)
	}
	// Overwrite with a different size class.
	big := bytes.Repeat([]byte{7}, 900)
	if err := c.Set("a", big); err != nil {
		t.Fatal(err)
	}
	v, ok, err = c.Get("a")
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("overwritten a: len %d ok=%v err=%v", len(v), ok, err)
	}
	if !c.Delete("a") {
		t.Fatal("delete a failed")
	}
	if _, ok, _ := c.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if err := c.Set("big", make([]byte, pageBytes+1)); err != ErrValueTooLarge {
		t.Fatalf("oversized set = %v, want ErrValueTooLarge", err)
	}
	// Page-sized values are the largest legal class.
	full := bytes.Repeat([]byte{3}, pageBytes)
	if err := c.Set("full", full); err != nil {
		t.Fatal(err)
	}
	v, ok, err = c.Get("full")
	if err != nil || !ok || !bytes.Equal(v, full) {
		t.Fatalf("full-page value bad: len %d ok=%v err=%v", len(v), ok, err)
	}
}

// TestClassTable: the slab classes are the rule's — for n = 64 down to
// 1 cells per page, the largest multiple of 8 that fits n times in a
// page, duplicates collapsed — classFor picks the smallest class that
// holds a length, and a carved page of every class is ⌊pageBytes/size⌋
// disjoint cells inside the page.
func TestClassTable(t *testing.T) {
	var want []int
	for n := 64; n >= 1; n-- {
		if size := pageBytes / n / 8 * 8; len(want) == 0 || want[len(want)-1] != size {
			want = append(want, size)
		}
	}
	if len(want) != len(classSizes) {
		t.Fatalf("%d classes, the rule gives %d: %v", len(classSizes), len(want), want)
	}
	for i, size := range want {
		if classSizes[i] != size {
			t.Errorf("class %d is %d bytes, the rule gives %d", i, classSizes[i], size)
		}
	}
	for n := 1; n <= pageBytes; n++ {
		cls, ok := classFor(n)
		if !ok || classSizes[cls] < n || cls > 0 && classSizes[cls-1] >= n {
			t.Fatalf("classFor(%d) = %d, %v", n, cls, ok)
		}
	}
	if cls, ok := classFor(pageBytes + 1); ok {
		t.Errorf("classFor(%d) = %d, want none", pageBytes+1, cls)
	}
	c, _ := newMemCache(t, uint64(len(classSizes)), 8)
	a := &c.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	for cls, size := range classSizes {
		first, ok := c.takeCell(cls)
		if !ok {
			t.Fatalf("class %d: no page to carve", size)
		}
		cells := append([]slot{first}, a.free[cls]...)
		if len(cells) != pageBytes/size {
			t.Errorf("class %d: a page carves into %d cells, want %d", size, len(cells), pageBytes/size)
		}
		var used [pageBytes]bool
		for _, s := range cells {
			if s.pg != first.pg || int(s.off)+size > pageBytes {
				t.Fatalf("class %d: cell %+v is not inside page %d", size, s, first.pg)
			}
			for b := int(s.off); b < int(s.off)+size; b++ {
				if used[b] {
					t.Fatalf("class %d: cell %+v overlaps another", size, s)
				}
				used[b] = true
			}
		}
	}
}

// TestHeapDensity loads the value model's 65,536 keys once: they carve
// at most 9,500 pages and fill at least 91 % of them with value bytes.
// Power-of-two classes carved 11,592 pages and filled 75.0 %.
func TestHeapDensity(t *testing.T) {
	const keys = 1 << 16
	heap := heapPagesFor(keys)
	c, _ := newMemCache(t, heap, int(heap)/8)
	for k := int64(0); k < keys; k++ {
		if err := c.Set(keyName(k), valFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	t.Logf("%d keys: %d pages carved of %d, %d value bytes, %.3f value bytes per carved byte", keys, s.HeapPages, heap, s.ValueBytes, s.density())
	if s.Steals != 0 {
		t.Errorf("a heap heapPagesFor sized stole %d cells", s.Steals)
	}
	if s.HeapPages > 9500 || s.density() < 0.91 {
		t.Errorf("%d pages carved at %.3f value bytes per carved byte; want <= 9500 at >= 0.91", s.HeapPages, s.density())
	}
}

// TestCacheStealUnderPressure fills past heap capacity: the allocator
// must steal oldest cells (FIFO-evicting their keys) instead of
// failing, stolen keys must read as clean misses, and surviving keys
// must stay intact.
func TestCacheStealUnderPressure(t *testing.T) {
	// 16 heap pages of 600-byte values' cells; write 256 keys.
	c := newTestCache(t, 16, 8)
	val := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 600)
	}
	cls, _ := classFor(600)
	cells := 16 * (pageBytes / classSizes[cls])
	for i := 0; i < 256; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), val(i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if c.Stats().Steals == 0 {
		t.Fatalf("256 sets into a %d-cell heap stole nothing", cells)
	}
	present := 0
	for i := 0; i < 256; i++ {
		v, ok, err := c.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !ok {
			continue
		}
		present++
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("key-%d corrupt after steals", i)
		}
	}
	if present == 0 || present > cells {
		t.Fatalf("%d keys present; want (0, %d]", present, cells)
	}
}

// fifoLen walks the steal FIFOs and returns how many cells they hold.
func fifoLen(t *testing.T, c *Cache) int {
	t.Helper()
	a := &c.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for cls := range a.head {
		prev := uint32(0)
		for n := a.head[cls]; n != 0; prev, n = n, a.nodes[n].next {
			if a.nodes[n].prev != prev {
				t.Fatalf("class %d: node %d's prev is %d, want %d", cls, n, a.nodes[n].prev, prev)
			}
			if total++; total > len(a.nodes) {
				t.Fatalf("class %d: FIFO loops", cls)
			}
		}
		if a.tail[cls] != prev {
			t.Fatalf("class %d: tail is %d, want %d", cls, a.tail[cls], prev)
		}
	}
	return total
}

// TestFIFOBoundedByLiveKeys: the steal FIFO holds one record per live
// cell, however many SETs have been served. It used to grow by one
// record per SET, consumed only once the heap was exhausted, so a server
// whose heap fits its keys leaked ~50 B per overwrite for ever.
func TestFIFOBoundedByLiveKeys(t *testing.T) {
	const keys = 1000
	const sets = 1_000_000
	c, _ := newMemCache(t, 256, 256)
	names := make([]string, keys)
	for i := range names {
		names[i] = keyName(int64(i))
	}
	var val [200]byte
	for i := 0; i < sets; i++ {
		k := (i * 7919) % keys
		val[0] = byte(i)
		// Lengths 1..200: overwrites change slab class now and then.
		if err := c.Set(names[k], val[:1+(i+k)%200]); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if i%100_000 == 99_999 {
			if n := fifoLen(t, c); n != keys {
				t.Fatalf("after %d sets of %d keys the FIFO holds %d records", i+1, keys, n)
			}
		}
	}
	for i := 0; i < keys; i += 2 {
		if !c.Delete(names[i]) {
			t.Fatalf("delete %s failed", names[i])
		}
	}
	if n := fifoLen(t, c); n != keys/2 {
		t.Errorf("after deleting half the keys the FIFO holds %d records, want %d", n, keys/2)
	}
	if n := len(c.alloc.nodes); n > 2*keys {
		t.Errorf("%d FIFO nodes were ever allocated for %d keys", n, keys)
	}
	if c.Stats().Steals != 0 {
		t.Error("a heap that fits its keys stole cells")
	}
}

// TestStealRaces hammers a heap a quarter the size of its key space from
// many goroutines, so that stealers, overwrites and deletes contend for
// the same FIFO heads. Whoever removes an index entry owns its cell and
// FIFO node: at the end every cell is either on a free list or linked
// under exactly one live key, none is still held, and no reader ever saw
// another key's bytes.
func TestStealRaces(t *testing.T) {
	const (
		keys    = 64
		pages   = 4 // 16 cells of class 1024
		workers = 8
		rounds  = 4000
	)
	c, _ := newMemCache(t, pages, pages)
	names := make([]string, keys)
	for i := range names {
		names[i] = keyName(int64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < rounds; i++ {
				k := (i*31 + w*17) % keys
				switch i % 4 {
				case 0, 1:
					if err := c.Set(names[k], bytes.Repeat([]byte{byte(k)}, 820+k)); err != nil {
						errs <- fmt.Errorf("set %d: %w", k, err)
						return
					}
				case 2:
					var ok bool
					var err error
					buf, ok, err = c.AppendGet(buf[:0], []byte(names[k]))
					if err != nil {
						errs <- fmt.Errorf("get %d: %w", k, err)
						return
					}
					if ok && !bytes.Equal(buf, bytes.Repeat([]byte{byte(k)}, 820+k)) {
						errs <- fmt.Errorf("key %d read %d bytes starting %#x", k, len(buf), buf[0])
						return
					}
				case 3:
					c.Delete(names[k])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Stats().Steals == 0 {
		t.Error("nothing was stolen")
	}
	checkLedger(t, c)
}

func TestLoadGenZeroFailures(t *testing.T) {
	c := newTestCache(t, 2048, 256)
	r := runLoad(c, loadConfig{
		keys: 4096, workers: 4, totalOps: 20000,
		theta: 0.99, setFrac: 0.1, sloP99Us: 0, seed: 42,
	})
	if r.Fails != 0 {
		t.Fatalf("%d failed ops (first: %v)", r.Fails, r.FirstErr)
	}
	if r.Ops < 20000 {
		t.Errorf("ops = %d, want >= 20000", r.Ops)
	}
	if r.Misses == 0 {
		t.Error("cold cache produced no misses")
	}
	if ps := c.Pager().Stats(); ps.Evictions == 0 {
		t.Error("8:1 heap over arena evicted nothing under load")
	}
}

// TestParseVmHWM: bench mode's local-memory line reads the peak RSS out
// of /proc/self/status, and prints nothing when it cannot.
func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmagecache\nVmPeak:\t 1300000 kB\nVmHWM:\t   47616 kB\nVmRSS:\t   40000 kB\n"
	if got, ok := parseVmHWM(status); !ok || got != 47616<<10 {
		t.Errorf("parseVmHWM = %d, %v; want %d, true", got, ok, 47616<<10)
	}
	for _, bad := range []string{"", "VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, ok := parseVmHWM(bad); ok {
			t.Errorf("parseVmHWM(%q) ok", bad)
		}
	}
	if runtime.GOOS == "linux" {
		if peak, ok := peakRSS(); !ok || peak <= 0 {
			t.Errorf("peakRSS on linux = %d, %v", peak, ok)
		}
	}
}

func TestServeProtocol(t *testing.T) {
	c := newTestCache(t, 256, 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveCache(ln, c)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) {
		t.Helper()
		if _, err := io.WriteString(conn, s); err != nil {
			t.Fatal(err)
		}
	}
	expectLine := func(want string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != want+"\n" {
			t.Fatalf("got %q, want %q", line, want)
		}
	}
	send("get nothing\n")
	expectLine("MISS")
	send("set k 5\nworld\n")
	expectLine("STORED")
	send("get k\n")
	expectLine("VALUE 5")
	body := make([]byte, 6)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	if string(body) != "world\n" {
		t.Fatalf("value body %q", body)
	}
	send("del k\n")
	expectLine("DELETED")
	send("get k\n")
	expectLine("MISS")
	send("bogus\n")
	expectLine(`ERR unknown verb "bogus"`)
	send("quit\n")
}

// TestMagecacheClusterChaos is the acceptance criterion: with the value
// heap on a 1-shard x 2-replica cluster, killing one replica mid-run
// and restarting it must complete with zero client-visible errors —
// failover hides the outage, resync re-admits the node.
func TestMagecacheClusterChaos(t *testing.T) {
	const capacity = 256 << 20
	srvs := make([]*memnode.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srv, err := memnode.NewServer("127.0.0.1:0", capacity)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	cl, err := memcluster.New([][]string{addrs}, memcluster.Options{
		ProbeInterval:   5 * time.Millisecond,
		ProbeBackoffMax: 20 * time.Millisecond,
		DisableProber:   true,
		Node: memnode.Options{
			DialTimeout: 250 * time.Millisecond,
			IOTimeout:   time.Second,
			MaxAttempts: 2,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cache, err := NewCache(cl, 2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	const keys = 2000
	sweep := func(tag string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			key := keyName(int64(i))
			v, ok, err := cache.Get(key)
			if err != nil {
				t.Fatalf("%s: get %s: %v", tag, key, err)
			}
			if !ok {
				if err := cache.Set(key, valFor(int64(i))); err != nil {
					t.Fatalf("%s: fill %s: %v", tag, key, err)
				}
				continue
			}
			if err := checkVal(int64(i), v); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
	sweep("warmup")

	// Kill replica 0 while a concurrent sweep hammers the cache; every
	// op must succeed via failover to the peer.
	var sweepErrs atomic.Uint64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < keys; i++ {
				k := int64((i*13 + w*331) % keys)
				v, ok, err := cache.Get(keyName(k))
				if err == nil && ok {
					err = checkVal(k, v)
				}
				if err == nil && !ok {
					err = cache.Set(keyName(k), valFor(k))
				}
				if err == nil && i%7 == 0 {
					err = cache.Set(keyName(k), valFor(k))
				}
				if err != nil {
					sweepErrs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}
	close(start)
	srvs[0].Close()
	wg.Wait()
	if n := sweepErrs.Load(); n > 0 {
		t.Fatalf("%d client-visible errors during replica outage (first: %v)", n, firstErr.Load())
	}

	// Restart on the same address; the bind can race the dying
	// listener, so restarting is itself a poll.
	deadline := time.Now().Add(15 * time.Second)
	var restarted *memnode.Server
	for restarted == nil {
		if time.Now().After(deadline) {
			t.Fatal("could not rebind the killed replica's address")
		}
		restarted, _ = memnode.NewServer(addrs[0], capacity)
		if restarted == nil {
			runtime.Gosched()
		}
	}
	defer restarted.Close()
	for cl.Stats().Readmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica not re-admitted; stats: %+v", cl.Stats())
		}
		cl.ProbeNow()
	}
	sweep("post-readmission")
	if s := cache.Pager().Stats(); s.WritebackErrors > 0 {
		// Write-behind may surface transient errors internally; what
		// matters is that none became client-visible and retries
		// landed. Flush must succeed now.
		if err := cache.Pager().Flush(); err != nil {
			t.Fatalf("flush after chaos: %v", err)
		}
	}
}

// BenchmarkMagecacheZipf is the headline number: sustained cache ops/s
// with the value heap at a remote:local ratio of 8:1 over a live
// memnode socket, phased Zipf/storm/crowd traffic, zero failed ops
// tolerated. It also reports how densely the slab classes pack the
// values it filled: value bytes per carved byte. make bench pins the
// ops/s floor and the density via benchsnap -require.
func BenchmarkMagecacheZipf(b *testing.B) {
	const keys = 1 << 15
	heapPages := heapPagesFor(keys)
	frames := int(heapPages) / 8
	cache := newTestCache(b, heapPages, frames)
	b.ReportAllocs()
	b.ResetTimer()
	r := runLoad(cache, loadConfig{
		keys: keys, workers: 8, totalOps: b.N,
		theta: 0.99, setFrac: 0.1, sloP99Us: 2000, seed: 1,
	})
	b.StopTimer()
	if r.Fails > 0 {
		b.Fatalf("%d failed ops (first: %v)", r.Fails, r.FirstErr)
	}
	b.ReportMetric(r.OpsPerSec, "ops/s")
	b.ReportMetric(r.P99Us, "p99-us")
	cs := cache.Stats()
	if cs.Gets > 0 {
		b.ReportMetric(float64(cs.Gets-cs.Misses)/float64(cs.Gets)*100, "hit-%")
	}
	b.ReportMetric(cs.density(), "value-bytes/carved-byte")
}
