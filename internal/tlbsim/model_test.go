package tlbsim

import (
	"testing"
)

// refTLB is the TLB as it was before FlushAll became a generation bump: a
// map of page to ring slot, which FlushAll clears along with the ring. It
// is kept as the model FuzzTLBModel holds the real TLB to.
type refTLB struct {
	capacity int
	entries  map[uint64]int
	ring     []uint64
	pos      int

	Hits   uint64
	Misses uint64
}

func newRefTLB(capacity int) *refTLB {
	t := &refTLB{
		capacity: capacity,
		entries:  make(map[uint64]int, capacity),
		ring:     make([]uint64, capacity),
	}
	for i := range t.ring {
		t.ring[i] = emptySlot
	}
	return t
}

func (t *refTLB) Touch(page uint64) bool {
	if _, ok := t.entries[page]; ok {
		t.Hits++
		return true
	}
	t.Misses++
	if old := t.ring[t.pos]; old != emptySlot {
		if idx, ok := t.entries[old]; ok && idx == t.pos {
			delete(t.entries, old)
		}
	}
	t.ring[t.pos] = page
	t.entries[page] = t.pos
	t.pos = (t.pos + 1) % t.capacity
	return false
}

func (t *refTLB) Contains(page uint64) bool {
	_, ok := t.entries[page]
	return ok
}

func (t *refTLB) Len() int { return len(t.entries) }

func (t *refTLB) FlushPage(page uint64) {
	if i, ok := t.entries[page]; ok {
		delete(t.entries, page)
		t.ring[i] = emptySlot
	}
}

func (t *refTLB) FlushAll() {
	clear(t.entries)
	for i := range t.ring {
		t.ring[i] = emptySlot
	}
}

// FuzzTLBModel drives the TLB and refTLB with the same operations and
// requires the same answers. The input's first byte picks the capacity
// (1–16). Each following pair of bytes is one operation (Touch,
// FlushPage, FlushAll, Contains, Len or a jump) on one of 40 pages. A
// jump is a FlushAll that leaves the TLB's generation counter a few
// flushes short of its wrap, as if 2^32 flushes had run, while slots
// filled before it still carry their old stamps: the next few FlushAlls
// cross the wrap, and a stamp that comes round again must not read as
// current.
func FuzzTLBModel(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 1, 2, 0, 0, 1, 3, 1, 4, 0})
	f.Add([]byte{2, 0, 1, 0, 2, 2, 0, 0, 1, 2, 0, 3, 1, 0, 3, 2, 0, 0, 1, 3, 1, 4, 0})
	f.Add([]byte{3, 0, 5, 0, 6, 1, 5, 5, 6, 2, 0, 0, 5, 2, 0, 0, 6, 2, 0, 3, 5, 3, 6, 4, 0, 2, 0, 0, 7})
	// A page flushed by FlushAll and then by FlushPage; a page that moved
	// to a new slot after a FlushAll, its old slot then reused.
	f.Add([]byte{4, 0, 1, 2, 0, 1, 1, 4, 0})
	f.Add([]byte{1, 0, 1, 2, 0, 0, 1, 0, 2, 3, 1, 4, 0})
	// Five pages cached at generation 0, a jump to the last generation,
	// one FlushAll across the wrap, then the five asked for again.
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 0, 3, 1, 2, 0, 3, 1, 3, 2, 4, 0, 0, 3, 0, 6, 4, 0})
	wrap := []byte{8, 0, 1, 0, 2, 0, 3, 5, 2}
	for i := 0; i < 24; i++ {
		wrap = append(wrap, 0, byte(i%11), 3, byte(i%7), 3, 1)
		if i%3 == 2 {
			wrap = append(wrap, 2, 0, 4, 0)
		}
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		capacity := int(in[0]%16) + 1
		got, want := NewTLB(capacity), newRefTLB(capacity)
		for i := 1; i+1 < len(in); i += 2 {
			page := uint64(in[i+1] % 40)
			switch in[i] % 6 {
			case 0:
				if g, w := got.Touch(page), want.Touch(page); g != w {
					t.Fatalf("op %d: Touch(%d) = %v, model %v", i/2, page, g, w)
				}
			case 1:
				got.FlushPage(page)
				want.FlushPage(page)
			case 2:
				got.FlushAll()
				want.FlushAll()
			case 3:
				if g, w := got.Contains(page), want.Contains(page); g != w {
					t.Fatalf("op %d: Contains(%d) = %v, model %v", i/2, page, g, w)
				}
			case 4:
				if g, w := got.Len(), want.Len(); g != w {
					t.Fatalf("op %d: Len() = %d, model %d", i/2, g, w)
				}
			case 5:
				got.FlushAll()
				want.FlushAll()
				if got.gen < 1<<31 { // never back: older stamps would come round early
					got.gen = ^uint32(0) - uint32(page%4)
				}
			}
			if got.Hits != want.Hits || got.Misses != want.Misses {
				t.Fatalf("op %d: hits/misses %d/%d, model %d/%d", i/2, got.Hits, got.Misses, want.Hits, want.Misses)
			}
			if len(got.entries) > capacity {
				t.Fatalf("op %d: %d map entries exceed capacity %d", i/2, len(got.entries), capacity)
			}
			for pg, idx := range got.entries {
				if got.ring[idx].page != pg {
					t.Fatalf("op %d: entry %d points at slot %d holding %d", i/2, pg, idx, got.ring[idx].page)
				}
			}
		}
		if got.Len() != want.Len() {
			t.Fatalf("end: Len() = %d, model %d", got.Len(), want.Len())
		}
		for pg := uint64(0); pg < 40; pg++ {
			if g, w := got.Contains(pg), want.Contains(pg); g != w {
				t.Fatalf("end: Contains(%d) = %v, model %v", pg, g, w)
			}
		}
	})
}
