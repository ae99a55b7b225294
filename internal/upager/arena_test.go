package upager

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// countReleases counts the calls of releaseArena that free p's arena
// until the returned func is called.
func countReleases(p *Pager) (n *int, stop func()) {
	n = new(int)
	arena := &p.arena[0]
	testHookArenaReleased = func(a []byte) {
		if &a[0] == arena {
			*n++
		}
	}
	return n, func() { testHookArenaReleased = nil }
}

// TestFramePinnedAcrossClose: Close does not pull the frames from under
// a pin. The arena outlives Close while a frame is pinned, or a fault is
// on its way into one, and is released exactly once, by the Unpin that
// drops the last pin. After that Pin and Flush return ErrClosed and
// Close does nothing.
func TestFramePinnedAcrossClose(t *testing.T) {
	t.Run("pinned", func(t *testing.T) {
		fb := newFakeBacking()
		p, err := New(fb, 16, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		released, stop := countReleases(p)
		defer stop()
		fr, err := p.Pin(3, true)
		if err != nil {
			t.Fatal(err)
		}
		stampPage(fr.Data, 3)
		fr.Unpin()
		if fr, err = p.Pin(3, true); err != nil { // a hit, this time
			t.Fatal(err)
		}
		if err := p.Close(); err == nil {
			t.Error("Close flushed a page that was still pinned for write")
		}
		if *released != 0 {
			t.Fatal("Close released the arena under a pinned frame")
		}
		checkPage(t, fr.Data, 3)
		stampPage(fr.Data, 7)
		checkPage(t, fr.Data, 7)
		if _, err := p.Pin(5, false); err != ErrClosed {
			t.Errorf("pin after close = %v, want ErrClosed", err)
		}
		if err := p.Close(); err != nil || *released != 0 {
			t.Errorf("second close = %v with %d releases, want nil and 0", err, *released)
		}
		fr.Unpin()
		if *released != 1 || p.arena != nil {
			t.Fatalf("the last Unpin after Close made %d releases (arena kept: %v), want 1", *released, p.arena != nil)
		}
		if err := p.Flush(); err != ErrClosed {
			t.Errorf("flush with the arena released = %v, want ErrClosed", err)
		}
		if err := p.Close(); err != nil || *released != 1 {
			t.Errorf("third close = %v with %d releases, want nil and 1", err, *released)
		}
	})
	t.Run("faulting", func(t *testing.T) {
		gb := &gatedRead{fakeBacking: newFakeBacking(), gate: make(chan struct{}), entered: make(chan struct{})}
		p, err := New(gb, 16, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		released, stop := countReleases(p)
		defer stop()
		markStored(p, 16)
		stamp := make([]byte, 8)
		stampPage(stamp, 2)
		if err := gb.Write(1, 2*4096, stamp); err != nil {
			t.Fatal(err)
		}
		type pinned struct {
			fr  Frame
			err error
		}
		res := make(chan pinned)
		go func() {
			fr, err := p.Pin(2, false)
			res <- pinned{fr, err}
		}()
		<-gb.entered // the fault holds a frame and waits on the wire
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if *released != 0 {
			t.Fatal("Close released the arena under a fault in flight")
		}
		close(gb.gate)
		r := <-res
		if r.err != nil {
			t.Fatal(r.err)
		}
		checkPage(t, r.fr.Data, 2)
		r.fr.Unpin()
		if *released != 1 {
			t.Fatalf("%d releases after the faulting pin's Unpin, want 1", *released)
		}
	})
}

// TestCloseUnderChurn: Close lands among pinners that fault, write and
// unpin until they see ErrClosed. Whichever of them drops the last hold
// releases the arena, once; off the race build a frame touched after
// that would be a segmentation fault, not a failed check.
func TestCloseUnderChurn(t *testing.T) {
	fb := newFakeBacking()
	p, err := New(fb, 256, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	released, stop := countReleases(p)
	defer stop()
	var wg sync.WaitGroup
	var pins atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				pg := uint64(w*61+i*7) % 256
				fr, err := p.Pin(pg, true)
				if err != nil {
					if err != ErrClosed {
						t.Error(err)
					}
					return
				}
				fr.Data[8+w]++ // a lane each: the pinners share pages
				fr.Unpin()
				pins.Add(1)
			}
		}(w)
	}
	waitFor(t, "the pinners to get going", func() bool { return pins.Load() > 2000 })
	// Close's flush may meet a page a pinner still holds for write and
	// report it; what matters here is what Close leaves mapped.
	if err := p.Close(); err != nil {
		t.Log(err)
	}
	wg.Wait()
	if *released != 1 {
		t.Fatalf("%d releases, want 1", *released)
	}
}

// gatedRead is a fakeBacking whose reads signal entered and then wait
// for gate: a demand fault held on the wire, whether it reads into its
// frame or reads first.
type gatedRead struct {
	*fakeBacking
	gate, entered chan struct{}
}

func (g *gatedRead) Read(handle uint64, offset, length int64) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.fakeBacking.Read(handle, offset, length)
}

func (g *gatedRead) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	g.entered <- struct{}{}
	<-g.gate
	return g.fakeBacking.ReadVInto(handle, offsets, dst)
}

// TestArenaOutsideGCGoal: on unix, outside a race build, 64 MiB of
// frames add almost nothing to the Go heap, and so nothing to the
// collector's goal, which a heap arena would push to twice its size
// (128 MiB or more). A race build keeps the arena on the heap, where the
// detector sees frame bytes: the test pins that too.
func TestArenaOutsideGCGoal(t *testing.T) {
	const frames = 64 << 20 / 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// A small region: the fake backing keeps it on the heap.
	p, err := New(newFakeBacking(), 16, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("64 MiB of frames: heap grew %.2f MiB, next GC at %.1f MiB", float64(grew)/(1<<20), float64(after.NextGC)/(1<<20))
	if offHeapArena {
		if grew >= 1<<20 || after.NextGC >= 32<<20 {
			t.Errorf("heap grew %d bytes and the GC goal is %d: the arena is on the heap", grew, after.NextGC)
		}
	} else if grew < 48<<20 { // not all 64: what earlier tests left may be freed meanwhile
		t.Errorf("heap grew %d bytes for 64 MiB of frames: this build's arena must be on the heap", grew)
	}
	runtime.KeepAlive(p)
}

// TestArenaOnHugePages: on Linux, outside a race build, the frames start
// on a 2 MiB boundary and, where the kernel's transparent huge pages are
// on (always, or madvise: the arena asks), frames touched are backed by
// huge pages, so one TLB entry covers 512 of them.
func TestArenaOnHugePages(t *testing.T) {
	if runtime.GOOS != "linux" || !offHeapArena {
		t.Skip("the arena is mapped for huge pages on Linux outside a race build")
	}
	const frames, pb, huge = 2048, 4096, 2 << 20
	p, err := New(newFakeBacking(), 16, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	base := uintptr(unsafe.Pointer(unsafe.SliceData(p.arena)))
	if base%huge != 0 || len(p.arena) != frames*pb {
		t.Fatalf("arena at %#x, %d bytes; want 2 MiB-aligned, %d bytes", base, len(p.arena), frames*pb)
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages are off (%q, %v)", bytes.TrimSpace(mode), err)
	}
	for f := 0; f < frames; f++ {
		p.arena[f*pb] = 1
	}
	kb, err := anonHugeKB(base, base+uintptr(len(p.arena)))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("THP %s: %d KiB of %d KiB of frames on huge pages", bytes.TrimSpace(mode), kb, frames*pb>>10)
	if kb == 0 {
		t.Fatal("every frame touched, and none of them is on a huge page")
	}
}

// anonHugeKB sums AnonHugePages over the mappings of /proc/self/smaps
// that overlap [lo, hi).
func anonHugeKB(lo, hi uintptr) (int, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, in := 0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var start, end uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x ", &start, &end); n == 2 {
			in = start < hi && lo < end
			continue
		}
		var v int
		if in && strings.HasPrefix(line, "AnonHugePages:") {
			if _, err := fmt.Sscanf(line, "AnonHugePages: %d kB", &v); err != nil {
				return 0, err
			}
			kb += v
		}
	}
	return kb, sc.Err()
}
