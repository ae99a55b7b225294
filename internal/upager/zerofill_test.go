package upager

import (
	"bytes"
	"testing"

	"mage/internal/invariant"
)

// TestZeroFill: far memory holds only what the pager wrote back, so a
// page never stored faults in as zeros with no read — on demand, into a
// dry pool, or through FaultAhead — and a page whose writeback was sent,
// whether the WRITEV succeeded or not, or which a Flush wrote, is read.
// Most rows run without an evictor goroutine: the test takes the
// evictor's step itself, and a fault that finds the pool dry takes it.
func TestZeroFill(t *testing.T) {
	type rig struct {
		t  *testing.T
		fb *fakeBacking
		p  *Pager
	}
	newRig := func(t *testing.T, frames int) *rig {
		fb := newFakeBacking()
		p, err := New(fb, 64, frames, Options{noEvictor: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return &rig{t, fb, p}
	}
	// reads is the pages the backing has been asked to read.
	reads := func(r *rig) uint64 { return r.fb.reads.Load() + r.fb.rvPages.Load() }
	// pin pins pg, stamps it when write is set, and returns a copy of its
	// bytes as the pin found them.
	pin := func(r *rig, pg uint64, write bool) []byte {
		r.t.Helper()
		fr, err := r.p.Pin(pg, write)
		if err != nil {
			r.t.Fatal(err)
		}
		data := bytes.Clone(fr.Data)
		if write {
			stampPage(fr.Data, pg)
		}
		fr.Unpin()
		return data
	}
	isStored := func(r *rig, pg uint64) bool {
		r.p.mu.Lock()
		defer r.p.mu.Unlock()
		return r.p.pages[pg].flags&flagStored != 0
	}
	zeros := make([]byte, 4096)
	// readBack evicts every clean page and faults pg back in: one read,
	// and its stamp.
	readBack := func(r *rig, pg uint64) {
		r.t.Helper()
		r.p.evictSome()
		before, zf := reads(r), r.p.Stats().ZeroFills
		checkPage(r.t, pin(r, pg, false), pg)
		if n, s := reads(r)-before, r.p.Stats(); n != 1 || s.ZeroFills != zf {
			r.t.Errorf("page %d faulted back in with %d reads and %d zero-fills; want 1 and 0", pg, n, s.ZeroFills-zf)
		}
	}

	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"a fresh page", func(t *testing.T) {
			r := newRig(t, 1)
			fr, err := r.p.Pin(0, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range fr.Data {
				fr.Data[i] = 0xAB // the one frame, which page 1 gets next
			}
			fr.Unpin()
			before := r.p.Stats()
			if got := pin(r, 1, false); !bytes.Equal(got, zeros) {
				t.Errorf("a page never stored reads %#x… in a reused frame; want zeros", got[:8])
			}
			s := r.p.Stats()
			if n := reads(r); n != 0 || s.ZeroFills-before.ZeroFills != 1 || s.Faults-before.Faults != 1 {
				t.Errorf("its fault read %d pages, made %d zero-fills of %d faults; want 0, 1 of 1", n, s.ZeroFills-before.ZeroFills, s.Faults-before.Faults)
			}
		}},
		{"a written-back page", func(t *testing.T) {
			r := newRig(t, 1)
			pin(r, 0, true)
			pin(r, 1, false) // the step writes page 0 back to free the frame
			if !isStored(r, 0) || r.fb.wvPages.Load() != 1 {
				t.Fatalf("page 0 evicted dirty: stored %v, %d pages written", isStored(r, 0), r.fb.wvPages.Load())
			}
			readBack(r, 0)
		}},
		{"after a failed WRITEV", func(t *testing.T) {
			r := newRig(t, 2)
			pin(r, 0, true)
			r.fb.failWV.Store(true)
			if _, err := r.p.evictSome(); err == nil {
				t.Fatal("the step's batch succeeded against a failing backing")
			}
			if !isStored(r, 0) {
				t.Error("a page whose WRITEV was sent and failed is not stored; far memory may hold part of it")
			}
			r.fb.failWV.Store(false)
			r.p.evictSome() // written this time
			readBack(r, 0)
		}},
		{"a clean eviction of a never-stored page", func(t *testing.T) {
			r := newRig(t, 1)
			pin(r, 0, false)
			pin(r, 1, false) // the step drops page 0 clean
			before := r.p.Stats()
			if got := pin(r, 0, false); !bytes.Equal(got, zeros) {
				t.Errorf("page 0 reads %#x…; want zeros", got[:8])
			}
			if s := r.p.Stats(); reads(r) != 0 || isStored(r, 0) || s.ZeroFills-before.ZeroFills != 1 || s.CleanDrops == 0 {
				t.Errorf("%d reads, stored %v, %d zero-fills, %d clean drops; want page 0 zero-filled again", reads(r), isStored(r, 0), s.ZeroFills-before.ZeroFills, s.CleanDrops)
			}
		}},
		{"after Flush", func(t *testing.T) {
			r := newRig(t, 8)
			pin(r, 0, true)
			if err := r.p.Flush(); err != nil {
				t.Fatal(err)
			}
			if !isStored(r, 0) {
				t.Fatal("a flushed page is not stored")
			}
			readBack(r, 0)
		}},
		{"FaultAhead over stored and fresh pages", func(t *testing.T) {
			r := newRig(t, 16) // a call claims up to 8 pages, the batch of 16 frames
			for pg := uint64(0); pg < 2; pg++ {
				pin(r, pg, true)
			}
			if err := r.p.Flush(); err != nil {
				t.Fatal(err)
			}
			r.p.evictSome() // pages 0 and 1 are stored and absent
			before := r.p.Stats()
			r.p.FaultAhead(pageRange(0, 4))
			for pg := uint64(0); pg < 4; pg++ {
				got := pin(r, pg, false)
				if pg < 2 {
					checkPage(t, got, pg)
				} else if !bytes.Equal(got, zeros) {
					t.Errorf("fresh page %d reads %#x…; want zeros", pg, got[:8])
				}
			}
			s := r.p.Stats()
			if rv, rvp, rd := r.fb.readvs.Load(), r.fb.rvPages.Load(), r.fb.reads.Load(); rv != 1 || rvp != 2 || rd != 0 {
				t.Errorf("the backing saw %d READV of %d pages and %d READs; want one READV of the 2 stored pages", rv, rvp, rd)
			}
			if s.FaultsAhead-before.FaultsAhead != 4 || s.ZeroFills-before.ZeroFills != 2 || s.Hits-before.Hits != 4 {
				t.Errorf("%d faults ahead, %d zero-filled, %d hits; want 4, 2, 4", s.FaultsAhead-before.FaultsAhead, s.ZeroFills-before.ZeroFills, s.Hits-before.Hits)
			}
			// Fresh pages alone start no read, and are resident on return.
			r.p.FaultAhead(pageRange(8, 4))
			r.p.mu.Lock()
			for pg := 8; pg < 12; pg++ {
				if pd := &r.p.pages[pg]; pd.state != pageResident || pd.flags&flagUntouched == 0 {
					t.Errorf("fresh page %d is in state %d, untouched %v, after FaultAhead; want resident and untouched", pg, pd.state, pd.flags&flagUntouched != 0)
				}
			}
			r.p.mu.Unlock()
			if rv := r.fb.readvs.Load(); rv != 1 {
				t.Errorf("a FaultAhead of fresh pages sent a READV (%d in all)", rv)
			}
			if n := r.p.FaultLatency().Count(); n != r.p.Stats().Faults {
				t.Errorf("fault-latency histogram holds %d samples for %d faults", n, r.p.Stats().Faults)
			}
		}},
		{"a fresh fault into a dry pool", func(t *testing.T) {
			sf := &startFake{fakeBacking: newFakeBacking(), t: t, inline: true}
			p, err := New(sf, 64, 4, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			sf.pager = p
			var held []Frame
			for pg := uint64(0); pg < 4; pg++ {
				fr, err := p.Pin(pg, false)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, fr)
			}
			faulted := make(chan []byte, 1)
			go func() {
				fr, err := p.Pin(10, false)
				if err != nil {
					t.Error(err)
					faulted <- nil
					return
				}
				faulted <- bytes.Clone(fr.Data)
				fr.Unpin()
			}()
			waitFor(t, "the fault to wait for a frame", func() bool { return p.Stats().FrameWaits == 1 })
			if n := sf.started.Load(); n != 0 {
				t.Errorf("a fault of a fresh page started %d reads before waiting", n)
			}
			held[0].Unpin()
			if got := <-faulted; !bytes.Equal(got, zeros) {
				t.Error("the fault into a dry pool did not land zeros")
			}
			for _, fr := range held[1:] {
				fr.Unpin()
			}
			if n, rd := sf.started.Load(), sf.reads.Load()+sf.readvs.Load(); n != 0 || rd != 0 {
				t.Errorf("%d reads started and %d run for five fresh pages; want none", n, rd)
			}
		}},
		{"the magecheck build refuses a read of a page never stored", func(t *testing.T) {
			if !invariant.Enabled {
				t.Skip("the invariant is compiled in with -tags magecheck")
			}
			r := newRig(t, 4)
			defer func() {
				if recover() == nil {
					t.Error("a read of page 3, never stored, passed the invariant")
				}
			}()
			r.p.checkStored([]int64{3 * 4096}, false)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}
