package upager_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
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
// and forwards Read, ReadV and WriteV by name. offPin counts the Reads
// that did not run inside the Pin that asked for them.
type shimBacking struct {
	upager.Backing
	reads, readvs, writevs, offPin int
}

func (b *shimBacking) Read(h uint64, off, n int64) ([]byte, error) {
	b.reads++
	stack := make([]byte, 8<<10)
	if !bytes.Contains(stack[:runtime.Stack(stack, false)], []byte("upager.(*Pager).Pin(")) {
		b.offPin++
	}
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
// ReadAsync kept visible beside the three the shim forwards.
type asyncShimBacking struct {
	shimBacking
	async  upager.AsyncBacking
	asyncs int
}

func (b *asyncShimBacking) ReadAsync(h uint64, off, n int64) *memnode.Pending {
	b.asyncs++
	return b.async.ReadAsync(h, off, n)
}

var (
	_ upager.Backing      = (*fiveBacking)(nil)
	_ upager.Backing      = (*shimBacking)(nil)
	_ upager.AsyncBacking = (*asyncShimBacking)(nil)
	_ upager.AsyncBacking = (*memnode.Client)(nil)
	_ upager.Backing      = (*memcluster.Cluster)(nil)
)

// TestFiveMethodBackingFillsBatches: a backing that is not far — bench's
// fake, or anything behind bench's shim — still gets its batches, through
// the adapter's ReadV and a copy, and the shim sees them.
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

// TestShimFaultIsOneRead: behind either of bench's shims the pager reads
// through the adapter, so a fault that finds a free frame is one Read,
// made inside the Pin that faulted — which is what lets the shim name the
// pin as the read's parent — and the shim's ReadAsync is never called.
func TestShimFaultIsOneRead(t *testing.T) {
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
	plain := &shimBacking{Backing: c}
	async := &asyncShimBacking{shimBacking: shimBacking{Backing: c}, async: c}
	for _, row := range []struct {
		name    string
		backing upager.Backing
		shim    *shimBacking
	}{{"tracedBacking", plain, plain}, {"tracedAsyncBacking", async, &async.shimBacking}} {
		p, err := upager.New(row.backing, 64, 16, upager.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := p.Pin(5, false)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if row.shim.reads != 1 || row.shim.offPin != 0 || row.shim.readvs != 0 {
			t.Errorf("%s: the fault made %d Reads, %d of them outside its Pin, and %d ReadVs; want one Read, inside", row.name, row.shim.reads, row.shim.offPin, row.shim.readvs)
		}
	}
	if async.asyncs != 0 {
		t.Errorf("the pager called the shim's ReadAsync %d times", async.asyncs)
	}
}
