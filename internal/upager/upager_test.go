package upager

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mage/internal/memnode"
	"mage/internal/prefetch"
)

// fakeBacking is an in-memory Backing with op accounting, failure
// injectors and gates that hold a batch verb on the wire until the test
// lets it go, so unit tests need no sockets.
type fakeBacking struct {
	mu       sync.Mutex
	mem      []byte
	reads    atomic.Uint64
	readvs   atomic.Uint64
	writevs  atomic.Uint64
	wvPages  atomic.Uint64
	failRead atomic.Bool // fails Read and ReadVInto
	scribble bool        // a failing ReadVInto dirties its buffers first
	failWV   atomic.Bool

	// A non-nil gate blocks the verb after it has signalled entered.
	rvGate, wvGate chan struct{}
	entered        chan struct{}
}

func newFakeBacking() *fakeBacking { return &fakeBacking{entered: make(chan struct{}, 16)} }

func (f *fakeBacking) Register(size int64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem = make([]byte, size)
	return 1, nil
}

func (f *fakeBacking) Read(handle uint64, offset, length int64) ([]byte, error) {
	f.reads.Add(1)
	if f.failRead.Load() {
		return nil, fmt.Errorf("fake: injected read failure")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, length)
	copy(out, f.mem[offset:offset+length])
	return out, nil
}

func (f *fakeBacking) Write(handle uint64, offset int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	copy(f.mem[offset:], data)
	return nil
}

// ReadVInto is the batched read the pager issues. scribble makes a
// failing one write into its buffers first, as a transport that dies
// mid-body does.
func (f *fakeBacking) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	f.readvs.Add(1)
	if f.rvGate != nil {
		f.entered <- struct{}{}
		<-f.rvGate
	}
	if f.failRead.Load() {
		if f.scribble {
			for _, d := range dst {
				for i := range d {
					d[i] = 0xBD
				}
			}
		}
		return fmt.Errorf("fake: injected readv failure")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, off := range offsets {
		copy(dst[i], f.mem[off:off+int64(len(dst[i]))])
	}
	return nil
}

func (f *fakeBacking) ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error) {
	out := memnode.SplitPages(make([]byte, int64(len(offsets))*pageBytes), pageBytes)
	return out, f.ReadVInto(handle, offsets, out)
}

func (f *fakeBacking) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	if f.wvGate != nil {
		f.entered <- struct{}{}
		<-f.wvGate
	}
	if f.failWV.Load() {
		return fmt.Errorf("fake: injected writev failure")
	}
	f.writevs.Add(1)
	f.wvPages.Add(uint64(len(pages)))
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, off := range offsets {
		copy(f.mem[off:], pages[i])
	}
	return nil
}

func stampPage(data []byte, pg uint64) {
	binary.LittleEndian.PutUint64(data, pg^0x6d616765)
}

func checkPage(t *testing.T, data []byte, pg uint64) {
	t.Helper()
	if got := binary.LittleEndian.Uint64(data); got != pg^0x6d616765 {
		t.Fatalf("page %d content stamp = %#x, want %#x", pg, got, pg^0x6d616765)
	}
}

func TestFaultEvictRoundtrip(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 256, 16, Options{EvictBatch: 8, NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Dirty every page: with 16 frames over 256 pages the evictor must
	// cycle the arena many times over.
	for pg := uint64(0); pg < 256; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatalf("pin %d: %v", pg, err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every page must read back its stamp, whether it survived locally
	// or went through writeback.
	for pg := uint64(0); pg < 256; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatalf("repin %d: %v", pg, err)
		}
		checkPage(t, fr.Data, pg)
		fr.Unpin()
	}
	s := p.Stats()
	if s.Evictions == 0 {
		t.Error("16 frames over 256 dirty pages evicted nothing")
	}
	if s.WritebackPages == 0 {
		t.Error("dirty evictions produced no writeback")
	}
}

// TestWriteBehindBatches verifies dirty victims leave in multi-page
// WRITEV frames, not page-at-a-time — the P2 cross-batch pipeline
// behaviour the pager exists to reproduce.
func TestWriteBehindBatches(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 1024, 64, Options{EvictBatch: 16, LowWater: 32, NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pg := uint64(0); pg < 1024; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, pages := fb.writevs.Load(), fb.wvPages.Load()
	if batches == 0 {
		t.Fatal("no writev batches reached the backing")
	}
	if avg := float64(pages) / float64(batches); avg < 4 {
		t.Errorf("writeback batching factor %.1f pages/batch; want >= 4", avg)
	}
	if fb.reads.Load() != 1024 {
		t.Errorf("backing saw %d reads; want exactly one fault per page (1024)", fb.reads.Load())
	}
}

// TestConcurrentFaultCoalescing: many goroutines pinning one absent
// page must coalesce onto a single backing read.
func TestConcurrentFaultCoalescing(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 8, Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const workers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fr, err := p.Pin(7, false)
			if err != nil {
				errs <- err
				return
			}
			fr.Unpin()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fb.reads.Load(); got != 1 {
		t.Fatalf("%d concurrent pins issued %d backing reads; want 1", workers, got)
	}
	s := p.Stats()
	if s.Faults != 1 {
		t.Errorf("faults = %d, want 1", s.Faults)
	}
	if s.Hits+s.Coalesced < workers-1 {
		t.Errorf("hits+coalesced = %d, want >= %d", s.Hits+s.Coalesced, workers-1)
	}
}

// TestConcurrentMixedChurn is the race-detector workout: many workers
// pinning, writing, and unpinning across a region much larger than the
// arena while the evictor churns underneath.
func TestConcurrentMixedChurn(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 512, 32, Options{EvictBatch: 8, NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				pg := uint64((w*131 + i*17) % 512)
				write := i%3 == 0
				fr, err := p.Pin(pg, write)
				if err != nil {
					errs <- fmt.Errorf("worker %d pin %d: %w", w, pg, err)
					return
				}
				if write {
					stampPage(fr.Data, pg)
				}
				fr.Unpin()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Faults == 0 || s.Evictions == 0 {
		t.Errorf("churn produced faults=%d evictions=%d; want both > 0", s.Faults, s.Evictions)
	}
}

// TestWritebackFailureKeepsPagesDirty: a failed write-behind batch must
// leave the victims resident and dirty, and their data must survive to
// a later successful flush.
func TestWritebackFailureKeepsPagesDirty(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 8, Options{EvictBatch: 4, NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fb.failWV.Store(true)
	for pg := uint64(0); pg < 8; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	if err := p.Flush(); err == nil {
		t.Fatal("flush succeeded against a failing backing")
	}
	fb.failWV.Store(false)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().WritebackErrors == 0 {
		t.Error("no writeback error recorded")
	}
	// The stamps must have reached the backing on the retry.
	for pg := uint64(0); pg < 8; pg++ {
		b, err := fb.Read(1, int64(pg)*4096, 8)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(b) != pg^0x6d616765 {
			t.Fatalf("page %d stamp missing from backing after retry", pg)
		}
	}
}

// TestSequentialPrefetch: a strided fault stream must trigger the
// detector and serve later pins without demand faults.
func TestSequentialPrefetch(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 4096, 256, Options{Detector: prefetch.NewMajority(8, 8, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pg := uint64(0); pg < 512; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	s := p.Stats()
	if s.PrefetchIssued == 0 {
		t.Fatal("sequential walk issued no prefetch")
	}
	if s.PrefetchHits == 0 {
		t.Error("no prefetched page was later pinned")
	}
	if s.Faults >= 512 {
		t.Errorf("every pin was a demand fault (%d) despite prefetch", s.Faults)
	}
	// Speculation keeps its own books: demand faults are the solo reads,
	// prefetches went out as batches and are not counted as faults.
	if r, rv := fb.reads.Load(), fb.readvs.Load(); s.Faults != r || rv == 0 || rv > s.PrefetchIssued {
		t.Errorf("faults=%d solo reads=%d, prefetch issued=%d in %d ReadV", s.Faults, r, s.PrefetchIssued, rv)
	}
}

// TestPinBounds and option validation.
func TestPinBounds(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 16, 4, Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Pin(16, false); err == nil {
		t.Error("out-of-range pin accepted")
	}
	if _, err := New(fb, 0, 4, Options{}); err == nil {
		t.Error("zero-page pager accepted")
	}
	if _, err := New(fb, 16, 0, Options{}); err == nil {
		t.Error("zero-frame pager accepted")
	}
}

func TestPinAfterClose(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 16, 4, Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(0, false); err != ErrClosed {
		t.Errorf("pin after close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestHitPathTouchesNoNetwork pins the acceptance criterion directly
// against a real memnode: once a page is resident, repeated pins must
// leave the client's per-verb wire counters completely flat.
func TestHitPathTouchesNoNetwork(t *testing.T) {
	srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memnode.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := New(c, 1024, 128, Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Fault in a working set smaller than the arena.
	for pg := uint64(0); pg < 64; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	before := c.Metrics()
	for round := 0; round < 100; round++ {
		for pg := uint64(0); pg < 64; pg++ {
			fr, err := p.Pin(pg, false)
			if err != nil {
				t.Fatal(err)
			}
			checkPage(t, fr.Data, pg)
			fr.Unpin()
		}
	}
	after := c.Metrics()
	if after.Read != before.Read || after.ReadV != before.ReadV ||
		after.Write != before.Write || after.WriteV != before.WriteV {
		t.Fatalf("hit path touched the network: before %+v/%+v after %+v/%+v",
			before.Read, before.Write, after.Read, after.Write)
	}
	s := p.Stats()
	if s.Hits < 6400 {
		t.Errorf("hits = %d, want >= 6400", s.Hits)
	}
}

// TestMemnodeRoundtrip: against a memnode client the demand path goes
// through the futures API — a read started by the Pin and completed by
// the link, counted under the Read verb like a synchronous one — and
// content survives write-behind and re-fault end to end over a real
// socket.
func TestMemnodeRoundtrip(t *testing.T) {
	srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memnode.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := New(c, 2048, 64, Options{EvictBatch: 16, NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, starts := Backing(c).(startBacking); p.async == nil || !starts {
		t.Fatal("memnode.Client not detected as a backing that returns futures and starts batched reads")
	}
	for pg := uint64(0); pg < 2048; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	for pg := uint64(0); pg < 2048; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, fr.Data, pg)
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.WritebackBatches == 0 {
		t.Error("no write-behind batches over the real socket")
	}
	m := c.Metrics()
	if m.WriteV.Ops == 0 {
		t.Error("client WriteV verb counter never moved")
	}
	if m.WriteV.Ops != s.WritebackBatches {
		t.Errorf("WriteV wire ops %d != pager writeback batches %d", m.WriteV.Ops, s.WritebackBatches)
	}
	if m.Read.Ops != s.Faults {
		t.Errorf("Read wire ops %d != pager faults %d", m.Read.Ops, s.Faults)
	}
}

// TestFlushLeavesPagesResident: Flush is a checkpoint, not an eviction
// — flushed pages stay resident and further pins are hits.
func TestFlushLeavesPagesResident(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 64, Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pg := uint64(0); pg < 32; pg++ {
		fr, err := p.Pin(pg, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, pg)
		fr.Unpin()
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	reads := fb.reads.Load()
	for pg := uint64(0); pg < 32; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, fr.Data, pg)
		fr.Unpin()
	}
	if got := fb.reads.Load(); got != reads {
		t.Errorf("pins after flush re-faulted: %d extra reads", got-reads)
	}
}
