package upager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/memnode"
)

// fakeBacking is an in-memory Backing with op accounting, failure
// injectors and gates that hold a verb on the wire until the test lets it
// go, so unit tests need no sockets. It counts reads as the wire carries
// them: a read of one page, a demand fault's, is a READ, whichever method
// asked for it, and a batch of more is a READV.
type fakeBacking struct {
	mu       sync.Mutex
	mem      []byte
	reads    atomic.Uint64 // READs: pages read one at a time
	readvs   atomic.Uint64 // READVs: batches of two pages or more
	rvPages  atomic.Uint64 // the pages the READVs carried
	writevs  atomic.Uint64
	wvPages  atomic.Uint64
	failRead atomic.Bool // fails Read and ReadVInto
	scribble bool        // a failing ReadVInto dirties its buffers first
	failWV   atomic.Bool

	// A non-nil gate blocks the verb after it has signalled entered. Once
	// closed, rvGate lets reads through without a signal.
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

// ReadVInto is the read the pager issues into its frames: a demand
// fault's page, or a batch. scribble makes a failing one write into its
// buffers first, as a transport that dies mid-body does.
func (f *fakeBacking) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	if len(dst) == 1 {
		f.reads.Add(1)
	} else {
		f.readvs.Add(1)
		f.rvPages.Add(uint64(len(dst)))
	}
	if gate := f.rvGate; gate != nil {
		select {
		case <-gate:
		default:
			f.entered <- struct{}{}
			<-gate
		}
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

// StartReadVInto runs ReadVInto on a goroutine of its own, which makes
// the fake far: the pager reads through ReadVInto, gates and failures
// included, and not through the adapter's Read.
func (f *fakeBacking) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	go func() { done(f.ReadVInto(handle, offsets, dst)) }()
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
	p, err := New(fb, 256, 16, Options{})
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
	p, err := New(fb, 1024, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	markStored(p, 1024)
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
	p, err := New(fb, 64, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	markStored(p, 64)
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
// arena while the evictor churns underneath. A pin is a reference, not a
// lock — two workers may hold write pins of one page at once — so each
// writes a lane of its own, as bench/page.go's clients do: the count of
// its write pins of that page, checked on every pin and, in far memory,
// after Close. A lost writeback or a stale fault is a lane gone back in
// time.
func TestConcurrentMixedChurn(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 512, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wrote := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wrote[w] = make([]uint64, 512)
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
				lane := fr.Data[8*w : 8*w+8]
				if got := binary.LittleEndian.Uint64(lane); got != wrote[w][pg] {
					errs <- fmt.Errorf("worker %d page %d: lane reads %d, want %d", w, pg, got, wrote[w][pg])
					fr.Unpin()
					return
				}
				if write {
					wrote[w][pg]++
					binary.LittleEndian.PutUint64(lane, wrote[w][pg])
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
	for w := range wrote {
		for pg, want := range wrote[w] {
			if got := binary.LittleEndian.Uint64(fb.mem[pg*4096+8*w:]); got != want {
				t.Fatalf("after Close, far memory has worker %d's lane of page %d at %d; want %d", w, pg, got, want)
			}
		}
	}
}

// TestWritebackFailureKeepsPagesDirty: a failed writeback batch, the
// evictor's or a Flush's, must leave its pages resident, dirty and
// queued — the next sweep or Flush can take them again — and their data
// must survive to a later successful write.
func TestWritebackFailureKeepsPagesDirty(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"the evictor's batch", func(t *testing.T) {
			fb := newFakeBacking()
			// No evictor goroutine: the test takes its step, and a fault that
			// finds the pool dry takes it too, so no second sweep can come
			// between the failed batch and the test's look.
			p, err := New(fb, 64, 8, Options{noEvictor: true})
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
			// The eighth fault left the pool dry. The step's batch is held on the
			// wire: a full batch, every page of it evicting, stored and under
			// the batch's one latch.
			fb.wvGate = make(chan struct{})
			swept := make(chan error, 1)
			go func() { _, err := p.evictSome(); swept <- err }()
			<-fb.entered
			p.mu.Lock()
			sent := slices.Clone(p.evict.pgs)
			latch := p.pages[sent[0]].latch
			for _, pg := range sent {
				if pd := &p.pages[pg]; pd.state != pageEvicting || pd.flags&flagStored == 0 || latch == nil || pd.latch != latch {
					t.Errorf("page %d on the wire in state %d, stored %v, under its own latch; want evicting and stored, one latch for the batch", pg, pd.state, pd.flags&flagStored != 0)
				}
			}
			p.mu.Unlock()
			if len(sent) != 4 {
				t.Errorf("the sweep sent %d pages; want a full batch of 4", len(sent))
			}
			close(fb.wvGate)
			if err := <-swept; err == nil {
				t.Fatal("the step's batch succeeded against a failing backing")
			}
			fb.wvGate = nil
			// Once the evictor's batch has failed, every page is back in a queue.
			if p.Stats().WritebackErrors == 0 {
				t.Fatal("the evictor's batch did not fail")
			}
			p.mu.Lock()
			resident, dirty := 0, 0
			for pg := range p.pages[:8] {
				if p.pages[pg].state == pageResident {
					resident++
				}
				if p.pages[pg].dirty {
					dirty++
				}
			}
			queued := p.sel.small.n + p.sel.main.n
			for _, pg := range sent {
				if p.pages[pg].flags&flagStored == 0 {
					t.Errorf("page %d went out in the failed batch and is not stored: its next fault would read nothing", pg)
				}
			}
			p.mu.Unlock()
			if resident != 8 || dirty != 8 || queued != 8 {
				t.Fatalf("after a failed batch: %d resident, %d dirty, %d queued; want 8 of each", resident, dirty, queued)
			}
			if err := p.Flush(); err == nil {
				t.Fatal("flush succeeded against a failing backing")
			}
			// With the backing mended, the sweep a ninth fault waits on takes the
			// same pages again, and writes them.
			fb.failWV.Store(false)
			fr, err := p.Pin(8, false)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
			if s := p.Stats(); s.Evictions == 0 || s.WritebackPages == 0 {
				t.Errorf("%d evictions, %d pages written back after the retry; want both > 0", s.Evictions, s.WritebackPages)
			}
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
			// Dropped clean, every page of the failed batch faults back in from
			// far memory, stamp and all.
			p.evictSome()
			reads := fb.reads.Load()
			for _, pg := range sent {
				fr, err := p.Pin(pg, false)
				if err != nil {
					t.Fatal(err)
				}
				checkPage(t, fr.Data, pg)
				fr.Unpin()
			}
			if n := fb.reads.Load() - reads; n != uint64(len(sent)) {
				t.Errorf("the %d pages of the failed batch faulted back in with %d reads", len(sent), n)
			}
		}},
		{"a flush's batch", func(t *testing.T) {
			fb := newFakeBacking()
			p, err := New(fb, 64, 8, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for pg := uint64(0); pg < 4; pg++ { // half the frames: no sweep
				fr, err := p.Pin(pg, true)
				if err != nil {
					t.Fatal(err)
				}
				stampPage(fr.Data, pg)
				fr.Unpin()
			}
			fb.failWV.Store(true)
			fb.wvGate = make(chan struct{})
			flushed := make(chan error, 1)
			go func() { flushed <- p.Flush() }()
			<-fb.entered
			p.mu.Lock()
			latch := p.pages[0].latch
			for pg := range p.pages[:4] {
				if pd := &p.pages[pg]; pd.state != pageEvicting || pd.latch != latch {
					t.Errorf("page %d on the wire in state %d under its own latch; want one latch for the batch", pg, pd.state)
				}
			}
			p.mu.Unlock()
			close(fb.wvGate)
			if err := <-flushed; err == nil {
				t.Fatal("flush succeeded against a failing backing")
			}
			p.mu.Lock()
			for pg := range p.pages[:4] {
				if pd := &p.pages[pg]; pd.state != pageResident || !pd.dirty || pd.latch != nil {
					t.Errorf("after a failed flush page %d is in state %d, dirty %v; want resident and dirty", pg, pd.state, pd.dirty)
				}
			}
			queued := p.sel.small.n + p.sel.main.n
			p.mu.Unlock()
			if queued != 4 {
				t.Errorf("%d frames queued after a failed flush; want 4", queued)
			}
			fb.wvGate = nil
			fb.failWV.Store(false)
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if s := p.Stats(); s.WritebackErrors != 1 || s.WritebackBatches != 1 || s.WritebackPages != 4 {
				t.Errorf("%d errors, %d batches of %d pages; want 1, and 1 of 4", s.WritebackErrors, s.WritebackBatches, s.WritebackPages)
			}
			for pg := uint64(0); pg < 4; pg++ {
				b, err := fb.Read(1, int64(pg)*4096, 8)
				if err != nil {
					t.Fatal(err)
				}
				if binary.LittleEndian.Uint64(b) != pg^0x6d616765 {
					t.Fatalf("page %d stamp missing from backing after the second flush", pg)
				}
				if p.pages[pg].dirty {
					t.Errorf("page %d still dirty after a flush that wrote it", pg)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

// TestWhichPinsCount: what the pager tells the selection. The Pin a page
// was read for records no use of it — not the faulting Pin, not the
// first Pin of a page FaultAhead brought — while a Pin that coalesced on
// another's fault, and every later one, does.
func TestWhichPinsCount(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	markStored(p, 64)
	pin := func(pg uint64) {
		t.Helper()
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	recorded := func(pg uint64) (uint8, bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.pages[pg].freq, p.pages[pg].flags&flagUntouched != 0
	}
	want := func(what string, pg uint64, freq uint8, untouched bool) {
		t.Helper()
		if f, u := recorded(pg); f != freq || u != untouched {
			t.Errorf("%s: %d pins recorded, untouched %v; want %d and %v", what, f, u, freq, untouched)
		}
	}

	pin(0)
	want("a page and the Pin that faulted it", 0, 0, touched)
	pin(0)
	want("pinned again", 0, 1, touched)
	for i := 0; i < 5; i++ {
		pin(0)
	}
	want("pinned seven times", 0, maxFreq, touched)

	p.FaultAhead([]uint64{1})
	waitFor(t, "the batch to install", func() bool { _, u := recorded(1); return u == faultedAhead })
	want("a page FaultAhead brought", 1, 0, faultedAhead)
	pin(1)
	want("and the Pin it was brought for", 1, 0, touched)
	pin(1)
	want("and the next", 1, 1, touched)

	// A second pinner of a lone fault: held on the latch, then a hit.
	fb.rvGate = make(chan struct{})
	p.FaultAhead([]uint64{2})
	<-fb.entered
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); pin(2) }()
	}
	waitFor(t, "both pins to wait on the latch", func() bool { return p.Stats().Coalesced == 2 })
	close(fb.rvGate)
	wg.Wait()
	want("two pinners coalesced on one page", 2, 1, touched)
}

// TestRefaultsCountLiveGhosts: a page evicted from the small queue and
// faulted back within the ghost window is a refault, in Stats and in
// where it is queued; one faulted back for the first time is not.
func TestRefaultsCountLiveGhosts(t *testing.T) {
	fb := newFakeBacking()
	// No evictor goroutine: the test takes its step.
	p, err := New(fb, 64, 16, Options{noEvictor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pg := uint64(0); pg < 16; pg++ {
		fr, err := p.Pin(pg, true) // dirty: a sweep ends with a batch of eight
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	// The pool is dry; page 0, first in and pinned once, is first out.
	p.evictSome()
	p.mu.Lock()
	absent := p.pages[0].state == pageAbsent
	p.mu.Unlock()
	if !absent {
		t.Fatal("the step did not evict page 0")
	}
	if s := p.Stats(); s.Refaults != 0 {
		t.Fatalf("%d refaults before any page came back; want 0", s.Refaults)
	}
	fr, err := p.Pin(0, false)
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	if s := p.Stats(); s.Refaults != 1 || s.Faults != 17 {
		t.Errorf("%d refaults of %d faults; want 1 of 17", s.Refaults, s.Faults)
	}
	p.mu.Lock()
	inMain := p.sel.main.n
	p.mu.Unlock()
	if inMain != 1 {
		t.Errorf("main holds %d frames; want the refaulted page's alone", inMain)
	}
}

// TestNoSpeculativeReads: the pager reads only what it is asked for. A
// sequential walk over a pager made with no options is one demand READ
// per page, and no batched read the walk did not ask for.
func TestNoSpeculativeReads(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 4096, 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	markStored(p, 4096)
	for pg := uint64(0); pg < 512; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	s := p.Stats()
	if r, rv := fb.reads.Load(), fb.readvs.Load(); s.Faults != 512 || r != 512 || rv != 0 {
		t.Errorf("512 pins made %d faults, %d READs and %d READVs; want 512, 512 and 0", s.Faults, r, rv)
	}
}

// TestPinBounds and option validation.
func TestPinBounds(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 16, 4, Options{})
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
	p, err := New(fb, 16, 4, Options{})
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
	p, err := New(c, 1024, 128, Options{})
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

// TestMemnodeRoundtrip: against a memnode client every demand fault is
// one wire READ — into the frame the fault took, or, when it found the
// pool dry, a read started before it waited — and content survives
// write-behind and re-fault end to end over a real socket.
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
	p, err := New(c, 2048, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.far != far(c) {
		t.Fatal("memnode.Client was wrapped in the adapter: it is far itself")
	}
	markStored(p, 2048)
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
	// A fault that got a frame at once asked for a ReadVInto of one page,
	// one that waited for a frame started one; the wire carried a READ
	// either way, which the server counts.
	if m.Read.Ops+m.ReadV.Ops != s.Faults {
		t.Errorf("Read and ReadV ops %d + %d != pager faults %d", m.Read.Ops, m.ReadV.Ops, s.Faults)
	}
	if st, err := c.Stat(); err != nil || st.ReadOps != s.Faults {
		t.Errorf("the server counted %d pages read (%v) for %d faults", st.ReadOps, err, s.Faults)
	}
}

// TestFlushLeavesPagesResident: Flush is a checkpoint, not an eviction
// — flushed pages stay resident and further pins are hits.
func TestFlushLeavesPagesResident(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 64, Options{})
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

// TestFlushResumesItsWalk: Flush's batches resume the walk of the page
// table where the last one stopped, and the call ends only after a walk
// that found nothing to send. A page write-dirtied behind the cursor
// while a batch is on the wire is written by the same call; a dirty page
// still pinned for write is reported, and written by the next Flush.
func TestFlushResumesItsWalk(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 32, Options{}) // a batch of 16
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pin := func(pg uint64, write bool) Frame {
		t.Helper()
		fr, err := p.Pin(pg, write)
		if err != nil {
			t.Fatal(err)
		}
		if write {
			stampPage(fr.Data, pg)
		}
		return fr
	}
	pin(0, false).Unpin() // resident and clean
	for pg := uint64(8); pg <= 24; pg++ {
		pin(pg, true).Unpin()
	}
	held := pin(40, true) // dirty, and pinned for write throughout

	fb.wvGate = make(chan struct{})
	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()
	<-fb.entered         // pages 8..23 are on the wire, the cursor past them
	pin(0, true).Unpin() // dirtied behind the cursor
	close(fb.wvGate)
	if err := <-flushed; err == nil || !strings.Contains(err.Error(), "left 1 dirty pages pinned") {
		t.Errorf("flush with page 40 pinned for write = %v, want it reported", err)
	}
	if wv := fb.writevs.Load(); wv != 3 {
		t.Errorf("%d batches written; want 8..23, 24 and page 0", wv)
	}
	stamped := func(pg uint64) bool {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		return binary.LittleEndian.Uint64(fb.mem[pg*4096:]) == pg^0x6d616765
	}
	for _, pg := range []uint64{0, 8, 23, 24} {
		if !stamped(pg) {
			t.Errorf("page %d is not in far memory after the flush", pg)
		}
	}
	if stamped(40) {
		t.Error("the flush wrote a page pinned for write")
	}
	held.Unpin()
	if err := p.Flush(); err != nil || !stamped(40) || fb.writevs.Load() != 4 {
		t.Errorf("the next flush = %v, page 40 written: %v, %d batches in all; want nil, true, 4", err, stamped(40), fb.writevs.Load())
	}
}

// gatedWriteV holds every WriteV until gate is closed, and closes entered
// when the first one arrives.
type gatedWriteV struct {
	*fakeBacking
	gate, entered chan struct{}
	once          sync.Once
}

func (g *gatedWriteV) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.fakeBacking.WriteV(handle, offsets, pages)
}

// TestDryPoolWaitersWake: a fault that finds the pool dry waits on the
// pool itself, and every frame given back wakes a waiter. Four faults
// wait behind the evictor's batch, held on the wire — two of stored
// pages, whose reads fly meanwhile, and two of fresh ones, which read
// nothing; the batch's settle frees eight frames, and every pin returns
// with its page. A fault waiting when Close runs gets ErrClosed at once,
// while Close still flushes behind the held batch.
func TestDryPoolWaitersWake(t *testing.T) {
	const frames, waiting = 16, 4
	// dry makes a pager whose every frame is taken: half by dirty pages,
	// half by the evictor's first batch, whose WriteV is held.
	dry := func(t *testing.T) (*Pager, *gatedWriteV) {
		t.Helper()
		g := &gatedWriteV{fakeBacking: newFakeBacking(), gate: make(chan struct{}), entered: make(chan struct{})}
		p, err := New(g, 64, frames, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stampBacking(g.fakeBacking, 64)
		p.mu.Lock()
		p.pages[20].flags |= flagStored
		p.pages[21].flags |= flagStored
		p.mu.Unlock()
		for pg := range uint64(frames) {
			fr, err := p.Pin(pg, true)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		<-g.entered
		if n := p.Stats().FreeFrames; n != 0 {
			t.Fatalf("%d frames free with the evictor's batch held; want a dry pool", n)
		}
		return p, g
	}
	type pinned struct {
		pg  uint64
		fr  Frame
		err error
	}
	pinAll := func(p *Pager, pgs ...uint64) chan pinned {
		got := make(chan pinned, len(pgs))
		for _, pg := range pgs {
			go func() {
				fr, err := p.Pin(pg, false)
				got <- pinned{pg, fr, err}
			}()
		}
		waitFor(t, "the faults to wait on the pool", func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.waiters == len(pgs)
		})
		return got
	}

	t.Run("a settle wakes them", func(t *testing.T) {
		p, g := dry(t)
		got := pinAll(p, 20, 21, 22, 23)
		select {
		case r := <-got:
			t.Fatalf("page %d's pin returned (err %v) with no frame freed", r.pg, r.err)
		default:
		}
		close(g.gate)
		deadline := time.After(time.Second)
		for range waiting {
			select {
			case r := <-got:
				if r.err != nil {
					t.Fatalf("page %d: %v", r.pg, r.err)
				}
				if r.pg < 22 {
					checkPage(t, r.fr.Data, r.pg)
				} else if binary.LittleEndian.Uint64(r.fr.Data) != 0 {
					t.Errorf("page %d, never stored, did not fault in as zeros", r.pg)
				}
				r.fr.Unpin()
			case <-deadline:
				t.Fatal("a fault still waits 1 s after the settle freed a batch of frames")
			}
		}
		if s := p.Stats(); s.FrameWaits != waiting || s.ZeroFills != frames+2 {
			t.Errorf("%d frame waits and %d zero fills; want %d and %d", s.FrameWaits, s.ZeroFills, waiting, frames+2)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("Close ends the wait", func(t *testing.T) {
		p, g := dry(t)
		got := pinAll(p, 22)
		closed := make(chan error, 1)
		go func() { closed <- p.Close() }()
		select {
		case r := <-got:
			if !errors.Is(r.err, ErrClosed) {
				t.Errorf("the waiting fault returned %v; want ErrClosed", r.err)
			}
		case <-time.After(time.Second):
			t.Fatal("the waiting fault was not released by Close within 1 s")
		}
		close(g.gate) // Close's flush waits behind the held batch
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
	})
}
