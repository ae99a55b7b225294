package stats

import (
	"sync"
	"testing"
)

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 100)
	}
	c := h.Clone()
	if c.Count() != h.Count() || c.P50() != h.P50() || c.P99() != h.P99() {
		t.Fatalf("clone diverges: %v vs %v", c, h)
	}
	// Mutating the clone must not touch the original.
	c.Record(1 << 40)
	if h.Max() == c.Max() {
		t.Error("clone shares state with original")
	}
}

func TestConcurrentHistogram(t *testing.T) {
	ch := NewConcurrentHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h := NewHistogram()
				h.Record(int64(w*per + i + 1))
				ch.Merge(h)
			}
		}()
	}
	wg.Wait()
	snap := ch.Snapshot()
	if snap.Count() != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count(), workers*per)
	}
	if snap.Min() != 1 || snap.Max() != workers*per {
		t.Errorf("min/max = %d/%d", snap.Min(), snap.Max())
	}
	// The snapshot is a copy: a later merge does not reach it.
	side := NewHistogram()
	side.Record(1 << 30)
	ch.Merge(side)
	if got := ch.Snapshot().Max(); got != 1<<30 || snap.Max() != workers*per {
		t.Errorf("merged max = %d, snapshot's max = %d", got, snap.Max())
	}
}
