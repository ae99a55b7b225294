package upager

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stampBacking writes the page stamp of pages [0,n) straight into the
// far memory, as if an earlier life of the pager had written them back.
func stampBacking(fb *fakeBacking, n uint64) {
	var b [8]byte
	for pg := uint64(0); pg < n; pg++ {
		binary.LittleEndian.PutUint64(b[:], pg^0x6d616765)
		fb.Write(1, int64(pg)*4096, b[:])
	}
}

// waitFor polls cond; the tests below use it only for conditions that
// another goroutine is certain to establish.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func pageRange(from, n uint64) []uint64 {
	pgs := make([]uint64, n)
	for i := range pgs {
		pgs[i] = from + uint64(i)
	}
	return pgs
}

// TestFaultAheadOneReadV: 16 absent pages handed over together cost one
// ReadV however many Pins race for them, the Pins coalesce on the
// latches, and the pages count as demand faults.
func TestFaultAheadOneReadV(t *testing.T) {
	fb := newFakeBacking()
	fb.rvGate = make(chan struct{})
	p, err := New(fb, 64, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stampBacking(fb, 64)

	p.FaultAhead(pageRange(0, 16))
	<-fb.entered // the batch is on the wire

	const pinners = 32
	var wg sync.WaitGroup
	errs := make(chan error, pinners)
	for w := 0; w < pinners; w++ {
		wg.Add(1)
		go func(pg uint64) {
			defer wg.Done()
			fr, err := p.Pin(pg, false)
			if err != nil {
				errs <- err
				return
			}
			if got := binary.LittleEndian.Uint64(fr.Data); got != pg^0x6d616765 {
				errs <- errors.New("pin saw the wrong bytes")
			}
			fr.Unpin()
		}(uint64(w % 16))
	}
	waitFor(t, "every pin to wait on a latch", func() bool { return p.Stats().Coalesced == pinners })
	close(fb.rvGate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rv, r := fb.readvs.Load(), fb.reads.Load(); rv != 1 || r != 0 {
		t.Fatalf("backing saw %d ReadV and %d Read; want 1 and 0", rv, r)
	}
	s := p.Stats()
	if s.Faults != 16 || s.FaultsAhead != 16 || s.Hits != pinners {
		t.Errorf("faults=%d ahead=%d hits=%d; want 16, 16, %d", s.Faults, s.FaultsAhead, s.Hits, pinners)
	}
	if n := p.FaultLatency().Count(); n != 16 {
		t.Errorf("fault-latency histogram holds %d samples; want 16", n)
	}
}

// TestFaultAheadSkips: pages that are resident, faulting, evicting or
// out of range are left alone.
func TestFaultAheadSkips(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stampBacking(fb, 64)

	for _, pg := range []uint64{1, 2} { // resident; 2 dirty
		fr, err := p.Pin(pg, pg == 2)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	fb.wvGate = make(chan struct{})
	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()
	<-fb.entered // page 2 is evicting

	fb.rvGate = make(chan struct{})
	p.FaultAhead([]uint64{3})
	<-fb.entered // page 3 is faulting

	p.FaultAhead([]uint64{1, 2, 3, 3, 64, ^uint64(0)})
	if rv := fb.readvs.Load(); rv != 1 {
		t.Errorf("%d ReadV issued; want only page 3's", rv)
	}
	close(fb.rvGate)
	close(fb.wvGate)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Faults != 3 {
		t.Errorf("faults = %d, want 3", s.Faults)
	}
}

// TestFaultAheadNeverBlocks: with no free frame and nothing evictable
// FaultAhead returns at once, and the pages fault normally later.
func TestFaultAheadNeverBlocks(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 64, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stampBacking(fb, 64)
	var held []Frame
	for pg := uint64(0); pg < 4; pg++ {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fr)
	}
	p.FaultAhead([]uint64{10, 11})
	if rv := fb.readvs.Load(); rv != 0 {
		t.Fatalf("%d ReadV issued with every frame pinned", rv)
	}
	for _, fr := range held {
		fr.Unpin()
	}
	fr, err := p.Pin(10, false)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, fr.Data, 10)
	fr.Unpin()
	if s := p.Stats(); s.Faults != 5 || s.FaultsAhead != 0 {
		t.Errorf("faults = %d, %d of them ahead; want 5 and 0", s.Faults, s.FaultsAhead)
	}
}

// TestFaultAheadReadVFailure: a failed batch aborts every claimed page
// to absent and returns every frame it was lent; the Pins that were
// waiting retry and surface their own error, and pages fault into the
// returned frames once reads work.
func TestFaultAheadReadVFailure(t *testing.T) {
	const frames = 16
	fb := newFakeBacking()
	fb.rvGate = make(chan struct{})
	p, err := New(fb, 64, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stampBacking(fb, 64)
	fb.failRead.Store(true)
	fb.scribble = true // the failed batch leaves rubbish in the frames it was lent

	p.FaultAhead(pageRange(8, 8))
	<-fb.entered
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for pg := uint64(8); pg < 16; pg++ {
		wg.Add(1)
		go func(pg uint64) {
			defer wg.Done()
			fr, err := p.Pin(pg, false)
			if err == nil {
				fr.Unpin()
			}
			errs <- err
		}(pg)
	}
	waitFor(t, "every pin to wait on a latch", func() bool { return p.Stats().Coalesced == 8 })
	close(fb.rvGate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Error("a pin succeeded against a failing backing")
		}
	}
	if free := p.Stats().FreeFrames; free != frames {
		t.Errorf("%d of %d frames free after the failed batch", free, frames)
	}

	// The frames came back dirty, and every one is reused here: what a
	// page shows is what its own fault read, never the failed batch.
	fb.failRead.Store(false)
	p.FaultAhead(pageRange(16, frames))
	for pg := uint64(16); pg < 16+frames; pg++ {
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
}

// TestCloseDrainsFaultAhead: Close waits for a batch that is on the
// wire instead of tearing the pager down under it.
func TestCloseDrainsFaultAhead(t *testing.T) {
	fb := newFakeBacking()
	fb.rvGate = make(chan struct{})
	p, err := New(fb, 64, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.FaultAhead(pageRange(0, 4))
	<-fb.entered
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	waitFor(t, "Close to mark the pager closed", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned with a batch in flight")
	default:
	}
	close(fb.rvGate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if free := p.Stats().FreeFrames; free != 16-4 {
		t.Errorf("%d frames free, want 12: the drained batch must have been installed", free)
	}
	p.FaultAhead(pageRange(8, 4)) // after Close: a no-op, not a panic
	if rv := fb.readvs.Load(); rv != 1 {
		t.Errorf("%d ReadV, want 1", rv)
	}
}

// TestFaultAheadBalance: driven through FaultAhead, the pager still
// balances: one fault per page touched (bar the odd look-ahead page the
// CLOCK hand reaches before its Pin does), evictions tracking faults
// once the arena is full.
func TestFaultAheadBalance(t *testing.T) {
	const pages, frames = 2048, 256
	fb := newFakeBacking()
	p, err := New(fb, pages, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stampBacking(fb, pages)
	for base := uint64(0); base < pages; base += 8 {
		win := pageRange(base, 8)
		p.FaultAhead(win)
		for _, pg := range win {
			fr, err := p.Pin(pg, false)
			if err != nil {
				t.Fatal(err)
			}
			checkPage(t, fr.Data, pg)
			fr.Unpin()
		}
	}
	s := p.Stats()
	if s.Faults < pages || s.Faults > pages+pages/20 {
		t.Errorf("faults = %d, want one per page (%d): look-ahead pages were lost before use", s.Faults, pages)
	}
	// A window that finds the free pool empty (the evictor is a step
	// behind) is skipped whole and faults page by page.
	if rv := fb.readvs.Load(); rv < pages/8*9/10 {
		t.Errorf("%d ReadV for %d windows", rv, pages/8)
	}
	if s.Evictions < s.Faults-frames || s.Evictions > s.Faults {
		t.Errorf("evictions = %d, want within [%d, %d]", s.Evictions, s.Faults-frames, s.Faults)
	}
	// FaultsAhead splits the faults by how they reached the backing: in
	// batches of up to 8, or page by page where a window was skipped.
	if rv := fb.readvs.Load(); s.FaultsAhead > 8*rv || s.FaultsAhead < rv || s.Faults-s.FaultsAhead != fb.reads.Load() {
		t.Errorf("faults = %d, %d ahead; the backing saw %d batches and %d single reads", s.Faults, s.FaultsAhead, rv, fb.reads.Load())
	}
	if n := p.FaultLatency().Count(); n != s.Faults {
		t.Errorf("fault-latency histogram holds %d samples for %d faults", n, s.Faults)
	}
}
