package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkLedger walks the allocator's books once everything that used the
// cache has stopped: every carved page belongs to one class and is
// covered by exactly ⌊pageBytes/size⌋ cells of it, each on a free list
// or published under exactly one live key, none twice and none held — by
// a Set that never finished or a reservation nobody consumed — and the
// steal FIFOs hold the published cells and nothing else.
func checkLedger(t *testing.T, c *Cache) {
	t.Helper()
	type cell struct {
		cls int
		s   slot
	}
	var cells []cell
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, s := range sh.ix.slots {
			if s != 0 {
				e := recEntry(sh.ix.record(s))
				cells = append(cells, cell{int(e.cls), slot{pg: e.pg, off: e.off}})
			}
		}
		sh.mu.Unlock()
	}
	live := len(cells)
	a := &c.alloc
	a.mu.Lock()
	for cls := range a.free {
		for _, s := range a.free[cls] {
			cells = append(cells, cell{cls, s})
		}
	}
	carved := int(a.nextPage)
	a.mu.Unlock()
	pageCls := make(map[uint32]int, carved)
	onPage := make(map[uint32]int, carved)
	seen := make(map[slot]bool, len(cells))
	for _, x := range cells {
		size, off := classSizes[x.cls], int(x.s.off)
		switch {
		case int(x.s.pg) >= carved:
			t.Errorf("class %d: cell %+v is on a page never carved (%d carved)", size, x.s, carved)
		case off != 0 && (off < size || (pageBytes-off)%size != 0):
			t.Errorf("class %d: cell %+v is not where the carve puts one", size, x.s)
		case seen[x.s]:
			t.Errorf("class %d: cell %+v is free or published twice", size, x.s)
		}
		seen[x.s] = true
		if cls, ok := pageCls[x.s.pg]; ok && cls != x.cls {
			t.Errorf("page %d has cells of classes %d and %d", x.s.pg, classSizes[cls], size)
		}
		pageCls[x.s.pg] = x.cls
		onPage[x.s.pg]++
	}
	if len(pageCls) != carved {
		t.Errorf("%d of %d carved pages have a free or published cell: the rest are held whole", len(pageCls), carved)
	}
	for pg, n := range onPage {
		size := classSizes[pageCls[pg]]
		if want := pageBytes / size; n != want {
			t.Errorf("page %d (class %d): %d of its %d cells are free or published: the rest are still held", pg, size, n, want)
		}
	}
	for cls := range c.writing {
		if n := c.writing[cls].Load(); n != 0 {
			t.Errorf("class %d: %d cells still counted as being written", classSizes[cls], n)
		}
	}
	if n := fifoLen(t, c); n != live {
		t.Errorf("%d live keys but %d steal-FIFO records", live, n)
	}
}

// TestWindowOfOneSkipsLookAhead: one request alone in the buffer goes
// straight to handle. Its page is demand-faulted by the Pin that needs
// it, with no batch of one, no goroutine and no latch hand-off before.
func TestWindowOfOneSkipsLookAhead(t *testing.T) {
	c, back := newMemCache(t, 256, 16)
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("old%d", i), bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
			t.Fatal(err)
		}
	}
	reads0, readvs0 := back.reads.Load(), back.readvs.Load()
	conn := pipeConn(t, c)
	r := bufio.NewReader(conn)
	for i := 0; i < 8; i++ { // pages 0..7, long evicted from 16 frames
		if _, err := io.WriteString(conn, fmt.Sprintf("get old%d\n", i*4)); err != nil {
			t.Fatal(err)
		}
		if got := readReplies(t, r, 1); got[0] != valueReply(strings.Repeat(string(rune(i*4)), 900)) {
			t.Fatalf("reply %d: %.40q", i, got[0])
		}
	}
	// A SET alone in the buffer takes the plain path too.
	if _, err := io.WriteString(conn, setReq("solo", "v")); err != nil {
		t.Fatal(err)
	}
	readReplies(t, r, 1)
	if rv := back.readvs.Load() - readvs0; rv != 0 {
		t.Errorf("depth-1 requests cost %d batched reads, want none", rv)
	}
	if rd := back.reads.Load() - reads0; rd < 8 {
		t.Errorf("%d single reads for 8 absent pages", rd)
	}
	if s := c.Pager().Stats(); s.FaultsAhead != 0 {
		t.Errorf("%d faults went through FaultAhead at depth 1", s.FaultsAhead)
	}
}

// TestReservationOutOfStealersReach: a connection whose peer has stopped
// reading blocks in the middle of a window, holding cells it reserved
// for SETs it has not reached. Another connection that needs cells of
// that class steals published ones and carries on: it never waits for a
// held cell, because a held cell is not in the steal FIFO. (With the
// FIFO node linked at reservation the second connection spins on "head
// is changing hands" until the first one's peer comes back.)
func TestReservationOutOfStealersReach(t *testing.T) {
	// 3 heap pages: one for the page-sized value, two of val's class.
	c, _ := newMemCache(t, 3, 3)
	big := strings.Repeat("B", 4000)
	if err := c.Set("big", []byte(big)); err != nil {
		t.Fatal(err)
	}
	val := func(k string) string { return strings.Repeat(k[len(k)-1:], 700) }
	cls, _ := classFor(700)
	for i := 0; i < 2*(pageBytes/classSizes[cls]); i++ {
		k := fmt.Sprintf("seed%d", i)
		if err := c.Set(k, []byte(val(k))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // four free cells, the rest published, heap exhausted
		c.Delete(fmt.Sprintf("seed%d", i))
	}

	// A: nine replies of 4 KiB overflow the 32 KiB reply buffer, so the
	// ninth GET blocks writing to a peer that is not reading, with the
	// four SETs behind it reserved.
	var win strings.Builder
	for i := 0; i < 9; i++ {
		win.WriteString("get big\n")
	}
	for i := 0; i < 4; i++ {
		win.WriteString(setReq(fmt.Sprintf("a%d", i), val(fmt.Sprintf("a%d", i))))
	}
	connA, doneA := pipeConnDone(t, c)
	wroteA := make(chan error, 1)
	go func() {
		_, err := io.WriteString(connA, win.String())
		wroteA <- err
	}()
	if err := <-wroteA; err != nil { // the server has the whole window
		t.Fatal(err)
	}
	freeCells := func() int {
		c.alloc.mu.Lock()
		defer c.alloc.mu.Unlock()
		return len(c.alloc.free[cls])
	}
	deadline := time.Now().Add(10 * time.Second)
	for freeCells() != 0 { // ... and has reserved the four free cells
		if time.Now().After(deadline) {
			t.Fatal("connection A never reserved its cells")
		}
		runtime.Gosched()
	}

	// B: 64 SETs of the class, one per round trip, each of which steals.
	connB, doneB := pipeConnDone(t, c)
	rB := bufio.NewReader(connB)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("b%d", i%16)
		if _, err := io.WriteString(connB, setReq(k, val(k))); err != nil {
			t.Fatal(err)
		}
		if got := readReplies(t, rB, 1); got[0] != "STORED\n" {
			t.Fatalf("set %d while A is blocked: %q", i, got[0])
		}
	}
	if s := c.Stats(); s.Steals < 60 {
		t.Errorf("%d steals; B's sets should all have stolen", s.Steals)
	}
	if y := c.Stats().StealYields; y != 0 {
		t.Errorf("a stealer yielded %d times with nobody else running", y)
	}

	// A's peer comes back: the window finishes into the reserved cells.
	got := readReplies(t, bufio.NewReader(connA), 13)
	for i, g := range got {
		want := "STORED\n"
		if i < 9 {
			want = valueReply(big)
		}
		if g != want {
			t.Fatalf("A's reply %d = %.40q", i, g)
		}
	}
	connA.Close()
	connB.Close()
	<-doneA
	<-doneB
	checkLedger(t, c)
}

// TestStealRacesConnections is TestStealRaces through the front door:
// eight connections send windows of SETs, GETs and DELs over a key
// space four times the heap, so reservations, steals, overwrites and
// deletes contend for the same cells. Every reply is checked, nothing
// may fail, stealers hardly ever find a cell changing hands, and when
// the connections have closed every cell is free or published.
func TestStealRacesConnections(t *testing.T) {
	const (
		keys    = 64
		pages   = 4 // 16 cells of class 1024
		conns   = 8
		windows = 300
	)
	c, _ := newMemCache(t, pages, 2)
	val := func(k int) string { return strings.Repeat(string(rune('A'+k%26)), 820+k) }
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	conn := make([]io.Closer, conns)
	done := make([]<-chan struct{}, conns)
	for w := 0; w < conns; w++ {
		cn, dn := pipeConnDone(t, c)
		conn[w], done[w] = cn, dn
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := bufio.NewReader(cn)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < windows; i++ {
				var win strings.Builder
				type sent struct{ verb, key int }
				var reqs []sent
				for j := 0; j < 12; j++ {
					k := rng.Intn(keys)
					v := rng.Intn(4)
					reqs = append(reqs, sent{v, k})
					switch v {
					case 0, 1:
						win.WriteString(setReq(keyName(int64(k)), val(k)))
					case 2:
						win.WriteString("get " + keyName(int64(k)) + "\n")
					case 3:
						win.WriteString("del " + keyName(int64(k)) + "\n")
					}
				}
				go io.WriteString(cn, win.String())
				got := readReplies(t, r, len(reqs))
				for j, q := range reqs {
					ok := false
					switch q.verb {
					case 0, 1:
						ok = got[j] == "STORED\n"
					case 2:
						ok = got[j] == "MISS\n" || got[j] == valueReply(val(q.key))
					case 3:
						ok = got[j] == "MISS\n" || got[j] == "DELETED\n"
					}
					if !ok {
						errs <- fmt.Errorf("conn %d window %d request %d (verb %d key %d): %.60q", w, i, j, q.verb, q.key, got[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w, cn := range conn {
		cn.Close()
		<-done[w]
	}
	s := c.Stats()
	if s.Steals == 0 {
		t.Error("nothing was stolen")
	}
	// A stealer yields when it loses the head to another stealer, or
	// lands in the few instructions between another goroutine's linking
	// or unlinking of a cell and its index update: at worst once per
	// rival and steal. One that waited for a SET to read its page, or for
	// a connection to reach it, would yield thousands of times.
	if y := s.StealYields; y > s.Steals*conns {
		t.Errorf("%d stealer yields for %d steals", y, s.Steals)
	}
	checkLedger(t, c)
}

// windowSource feeds a connection loop one prepared window per serve
// call: a Read that returns the window, then EOF.
type windowSource struct{ rest []byte }

func (s *windowSource) Read(p []byte) (int, error) {
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// farWindows prepares 16-request windows over a heap of 1024 one-KiB
// keys (256 pages) that walk the key space in order, so that under 64
// frames — a free pool of 8, more than a window needs — every window
// finds the pages of its twelve GETs absent. Its four SETs overwrite
// keys on those pages.
func farWindows(t testing.TB) (*Cache, *memBacking, [][]byte) {
	const keys = 1024
	c, back := newMemCache(t, 300, 64)
	val := bytes.Repeat([]byte{'v'}, 900)
	for k := 0; k < keys; k++ {
		if err := c.Set(keyName(int64(k)), val); err != nil {
			t.Fatal(err)
		}
	}
	var wins [][]byte
	for w := 0; w < keys/16; w++ {
		var win bytes.Buffer
		for j := 0; j < 16; j++ {
			k := keyName(int64(w*16 + j))
			if j%4 == 3 {
				fmt.Fprintf(&win, "set %s %d\n%s\n", k, len(val), val)
			} else {
				fmt.Fprintf(&win, "get %s\n", k)
			}
		}
		wins = append(wins, win.Bytes())
	}
	return c, back, wins
}

// TestFarWindowAllocs pins what a window that faults costs in
// allocations: one latch and one goroutine for the batch, one latch for
// the evictor's sweep — a small constant, where a key string per SET and
// a buffer per batch (pages x 4 KiB, which no caller could ever
// hand back), three lists per batch and sweep, and a latch per page
// faulted or written back used to be.
func TestFarWindowAllocs(t *testing.T) {
	c, back, wins := farWindows(t)
	src := &windowSource{}
	cs := &connState{
		c:   c,
		r:   bufio.NewReaderSize(src, connBuf),
		w:   bufio.NewWriterSize(io.Discard, connBuf),
		val: make([]byte, 0, pageBytes),
	}
	next := 0
	serve := func() {
		src.rest = wins[next%len(wins)]
		next++
		cs.r.Reset(src)
		cs.serve()
	}
	for i := 0; i < 2*len(wins); i++ { // every key overwritten once: the slab layout has settled
		serve()
	}
	s0, rv0, rd0 := c.Pager().Stats(), back.readvs.Load(), back.reads.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 256
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&m1)
	s1 := c.Pager().Stats()
	faults := float64(s1.Faults-s0.Faults) / runs
	if faults < 4 {
		t.Fatalf("%.1f faults per window: the windows do not exercise the fill path", faults)
	}
	if rv := float64(back.readvs.Load()-rv0) / runs; rv > 1.05 {
		t.Errorf("%.2f batched reads per window, want 1", rv)
	}
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	// A page the CLOCK hand took between the look-ahead and its request is
	// faulted by its Pin alone — 0.15 to 0.45 times a window, as the
	// evictor's timing has it — straight into its frame, as a READ that
	// allocates nothing.
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("%.1f faults (%.2f alone), %.1f allocations, %.0f bytes per window", faults, float64(back.reads.Load()-rd0)/runs, allocs, bytesPer)
	// At most three allocations today: the batch's latch and goroutine,
	// the latch of the evictor's sweep when it runs. About 250 bytes. A
	// SET's key costs none: the reservation keeps it in the connection's
	// scratch, and the index copies it into its arena only for a new key
	// (four strings a window when the index kept strings). What the
	// ceiling tells apart is a cost that grows with the pages faulted: a
	// buffer per batch is pages x 4 KiB, 16 KiB for these windows (what
	// they cost before the frames were lent to the wire). Half a page has
	// a factor of eight to either side.
	if allocs > 6 || bytesPer > pageBytes/2 {
		t.Errorf("a window that faults %.1f pages costs %.1f allocations and %.0f bytes; want a constant well under one page", faults, allocs, bytesPer)
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Errorf("%d misses", s.Misses)
	}
}

// TestDemandFaultShare: steady Zipf traffic at 8:1, 10 % SETs, windows
// of 16 — the benchmark's far workload in miniature. Nearly every fault
// is one the window's look-ahead started in a batch. What is left for a
// Pin to fault alone is a page that was resident when the window was
// looked over and that the CLOCK hand reached before its request did:
// under 2 % of the faults (5 % under the race detector, which gives the
// evictor more of every window). With SETs faulting their cells on
// demand it was about 13 %.
func TestDemandFaultShare(t *testing.T) {
	const keys = 8192
	heap := heapPagesFor(keys)
	c, _ := newMemCache(t, heap, int(heap)/8)
	for k := int64(0); k < keys; k++ {
		if err := c.Set(keyName(k), valFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	conn := pipeConn(t, c)
	r := bufio.NewReader(conn)
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.01, 1, keys-1)
	s0 := c.Pager().Stats()
	const windows = 1500
	for w := 0; w < windows; w++ {
		var win bytes.Buffer
		var ks [16]int64
		var set [16]bool
		for j := range ks {
			// Scramble the rank so that hot keys are spread over the heap.
			k := int64(fnv64(zipf.Uint64()) % keys)
			ks[j], set[j] = k, rng.Intn(10) == 0
			if set[j] {
				v := valFor(k)
				fmt.Fprintf(&win, "set %s %d\n%s\n", keyName(k), len(v), v)
			} else {
				fmt.Fprintf(&win, "get %s\n", keyName(k))
			}
		}
		go conn.Write(win.Bytes())
		got := readReplies(t, r, 16)
		for j, g := range got {
			want := "STORED\n"
			if !set[j] {
				want = valueReply(string(valFor(ks[j])))
			}
			if g != want {
				t.Fatalf("window %d request %d: %.60q", w, j, g)
			}
		}
	}
	s1 := c.Pager().Stats()
	faults := s1.Faults - s0.Faults
	demand := faults - (s1.FaultsAhead - s0.FaultsAhead)
	t.Logf("%d faults in %d ops, %d of them on demand (%.2f%%)", faults, windows*16, demand, 100*float64(demand)/float64(faults))
	if faults < windows {
		t.Fatalf("only %d faults: the run does not page", faults)
	}
	bound := uint64(2)
	if raceEnabled {
		bound = 5
	}
	if demand*100 > faults*bound {
		t.Errorf("%d of %d faults were demand faults, want under %d%%", demand, faults, bound)
	}
}
