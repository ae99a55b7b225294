package upager_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/upager"
)

// bench/ is a module of its own that tier-1 never compiles, and a change
// that claims a gain may not edit it. This file holds the two shapes it
// makes of upager.Backing, so that an interface change that would break
// it fails here, not in the benchmark run.

// fiveBacking is the shape of bench/checkers_test.go's fake: the five
// methods of Backing and nothing else.
type fiveBacking struct {
	mu     sync.Mutex
	mem    []byte
	readvs int
}

func (b *fiveBacking) Register(size int64) (uint64, error) {
	b.mem = make([]byte, size)
	return 1, nil
}

func (b *fiveBacking) Read(_ uint64, off, n int64) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.mem[off:off+n]...), nil
}

func (b *fiveBacking) Write(_ uint64, off int64, data []byte) error {
	return b.WriteV(0, []int64{off}, [][]byte{data})
}

func (b *fiveBacking) ReadV(h uint64, offs []int64, pb int64) ([][]byte, error) {
	b.mu.Lock()
	b.readvs++
	b.mu.Unlock()
	out := make([][]byte, len(offs))
	for i, off := range offs {
		out[i], _ = b.Read(h, off, pb)
	}
	return out, nil
}

func (b *fiveBacking) WriteV(_ uint64, offs []int64, pages [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, off := range offs {
		copy(b.mem[off:], pages[i])
	}
	return nil
}

// shimBacking is the shape of bench/shim.go's tracedBacking: it embeds
// the interface — which hides whatever else the wrapped store can do —
// and forwards Read, ReadV and WriteV by name.
type shimBacking struct {
	upager.Backing
	reads, readvs, writevs int
}

func (b *shimBacking) Read(h uint64, off, n int64) ([]byte, error) {
	b.reads++
	return b.Backing.Read(h, off, n)
}

func (b *shimBacking) ReadV(h uint64, offs []int64, pb int64) ([][]byte, error) {
	b.readvs++
	return b.Backing.ReadV(h, offs, pb)
}

func (b *shimBacking) WriteV(h uint64, offs []int64, pages [][]byte) error {
	b.writevs++
	return b.Backing.WriteV(h, offs, pages)
}

// asyncShimBacking is the shape of bench/shim.go's tracedAsyncBacking:
// ReadAsync kept visible, its completion observed through Done.
type asyncShimBacking struct {
	shimBacking
	async upager.AsyncBacking
	done  chan struct{}
}

func (b *asyncShimBacking) ReadAsync(h uint64, off, n int64) *memnode.Pending {
	p := b.async.ReadAsync(h, off, n)
	go func() {
		<-p.Done()
		b.done <- struct{}{}
	}()
	return p
}

var (
	_ upager.Backing      = (*fiveBacking)(nil)
	_ upager.Backing      = (*shimBacking)(nil)
	_ upager.AsyncBacking = (*asyncShimBacking)(nil)
	_ upager.IntoBacking  = (*memnode.Client)(nil)
	_ upager.AsyncBacking = (*memnode.Client)(nil)
	_ upager.IntoBacking  = (*memcluster.Cluster)(nil)
)

// TestFiveMethodBackingFillsBatches: a backing that is not an
// IntoBacking — bench's fake, or anything behind bench's shim — still
// gets its batches, through ReadV and a copy, and the shim sees them.
func TestFiveMethodBackingFillsBatches(t *testing.T) {
	five := &fiveBacking{}
	shim := &shimBacking{Backing: five}
	p, err := upager.New(shim, 64, 16, upager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < 64; pg++ {
		binary.LittleEndian.PutUint64(five.mem[pg*4096:], pg+1)
	}
	pgs := []uint64{3, 9, 27, 40}
	p.FaultAhead(pgs)
	for _, pg := range pgs {
		fr, err := p.Pin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(fr.Data); got != pg+1 {
			t.Errorf("page %d holds stamp %d", pg, got)
		}
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Faults != 4 || s.FaultsAhead != 4 {
		t.Errorf("faults = %d, %d ahead; want 4 and 4", s.Faults, s.FaultsAhead)
	}
	if shim.readvs != 1 || five.readvs != 1 || shim.reads != 0 {
		t.Errorf("the shim saw %d ReadV and %d Read, the store %d ReadV; want 1, 0, 1", shim.readvs, shim.reads, five.readvs)
	}
}

// TestAsyncShimKeepsReadAsync: behind the async shim the pager still
// takes its futures path, and the shim sees each future complete.
func TestAsyncShimKeepsReadAsync(t *testing.T) {
	srv, err := memnode.NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memnode.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shim := &asyncShimBacking{shimBacking: shimBacking{Backing: c}, async: c, done: make(chan struct{}, 4)}
	p, err := upager.New(shim, 64, 16, upager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fr, err := p.Pin(5, false)
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	<-shim.done
	if shim.reads != 0 {
		t.Errorf("the pager fell back to %d synchronous Read behind an AsyncBacking", shim.reads)
	}
}
