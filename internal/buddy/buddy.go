// Package buddy implements a binary buddy physical page-frame allocator,
// the global allocator underlying both Linux's and OSv's memory managers
// (§3.3.3 of the paper).
//
// Frames are identified by dense indices in [0, NumFrames). Allocations
// are power-of-two sized blocks ("orders"); freed blocks coalesce with
// their buddies. The allocator itself is not synchronized — callers wrap
// it in a sim.Mutex (the "global lock" the paper identifies as a
// bottleneck) or in the per-CPU caching layers of package palloc.
package buddy

import (
	"fmt"

	"mage/internal/invariant"
)

// MaxOrder is the largest supported block order (2^10 = 1024 frames,
// matching Linux's MAX_ORDER-1 = 10).
const MaxOrder = 10

// Frame is a physical page-frame index.
type Frame int32

// NilFrame is the invalid frame value.
const NilFrame Frame = -1

// Allocator is a binary buddy allocator over a contiguous frame range.
// Free lists are LIFO with lazy deletion: O(1) amortized alloc/free.
type Allocator struct {
	numFrames int
	stack     [MaxOrder + 1][]Frame            // free-block stacks by order (may hold stale entries)
	freeSet   [MaxOrder + 1]map[Frame]struct{} // authoritative free-block membership
	blockOrd  map[Frame]int                    // allocated block -> order
	freeCount int
	ops       uint64 // mutation count, drives periodic magecheck validation
}

// New returns an allocator managing numFrames frames, all initially free.
func New(numFrames int) *Allocator {
	if numFrames <= 0 {
		panic(fmt.Sprintf("buddy: invalid frame count %d", numFrames))
	}
	a := &Allocator{
		numFrames: numFrames,
		blockOrd:  make(map[Frame]int),
		freeCount: numFrames,
	}
	for o := range a.freeSet {
		a.freeSet[o] = make(map[Frame]struct{})
	}
	// Seed free lists greedily with the largest aligned blocks that fit.
	f := Frame(0)
	remaining := numFrames
	for remaining > 0 {
		o := MaxOrder
		for o > 0 && ((1<<o) > remaining || int(f)%(1<<o) != 0) {
			o--
		}
		a.push(o, f)
		f += 1 << o
		remaining -= 1 << o
	}
	return a
}

func (a *Allocator) push(order int, f Frame) {
	a.stack[order] = append(a.stack[order], f)
	a.freeSet[order][f] = struct{}{}
}

// pop removes and returns a free block of exactly this order, skipping
// entries invalidated by coalescing.
func (a *Allocator) pop(order int) (Frame, bool) {
	s := a.stack[order]
	for len(s) > 0 {
		f := s[len(s)-1]
		s = s[:len(s)-1]
		if _, ok := a.freeSet[order][f]; ok {
			delete(a.freeSet[order], f)
			a.stack[order] = s
			return f, true
		}
	}
	a.stack[order] = s
	return NilFrame, false
}

// FreeFrames returns the number of currently free frames.
func (a *Allocator) FreeFrames() int { return a.freeCount }

// Alloc allocates a block of 2^order frames and returns its first frame.
// ok is false if no block of sufficient size is free.
func (a *Allocator) Alloc(order int) (Frame, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: invalid order %d", order))
	}
	// Find the smallest free block of at least the requested order.
	o := order
	var blk Frame
	ok := false
	for ; o <= MaxOrder; o++ {
		if blk, ok = a.pop(o); ok {
			break
		}
	}
	if !ok {
		return NilFrame, false
	}
	// Split down to the requested order.
	for o > order {
		o--
		a.push(o, blk+Frame(1<<o))
	}
	a.blockOrd[blk] = order
	a.freeCount -= 1 << order
	if invariant.Enabled {
		a.checkConservation()
	}
	return blk, true
}

// AllocPage allocates a single frame (order 0).
func (a *Allocator) AllocPage() (Frame, bool) { return a.Alloc(0) }

// Free returns a previously allocated block to the allocator, coalescing
// with free buddies. Freeing an unallocated or double-freed block panics.
func (a *Allocator) Free(blk Frame) {
	order, ok := a.blockOrd[blk]
	if !ok {
		panic(fmt.Sprintf("buddy: free of unallocated block %d", blk))
	}
	delete(a.blockOrd, blk)
	a.freeCount += 1 << order
	for order < MaxOrder {
		buddyBlk := blk ^ Frame(1<<order)
		// Overflow-safe form of buddyBlk+(1<<order) > numFrames: a
		// negative right side means the block cannot fit at all.
		if int(buddyBlk) > a.numFrames-(1<<order) {
			break
		}
		if _, free := a.freeSet[order][buddyBlk]; !free {
			break
		}
		delete(a.freeSet[order], buddyBlk) // lazy: stale stack entry skipped later
		if buddyBlk < blk {
			blk = buddyBlk
		}
		order++
	}
	a.push(order, blk)
	if invariant.Enabled {
		a.checkConservation()
	}
}

// checkConservation runs cheap bounds checks on every mutation and the
// full conservation/no-overlap validation every 512th, when built with
// -tags magecheck.
func (a *Allocator) checkConservation() {
	invariant.Assert(a.freeCount >= 0 && a.freeCount <= a.numFrames,
		"buddy: free count %d outside [0,%d]", a.freeCount, a.numFrames)
	a.ops++
	if a.ops&511 == 0 {
		invariant.Check(a.checkInvariants())
	}
}

// FreePage frees a single frame previously returned by AllocPage.
func (a *Allocator) FreePage(f Frame) { a.Free(f) }

// checkInvariants validates internal consistency; used by tests.
func (a *Allocator) checkInvariants() error {
	covered := make(map[Frame]bool)
	total := 0
	add := func(start Frame, order int, what string) error {
		for i := Frame(0); i < Frame(1<<order); i++ {
			f := start + i
			if int(f) >= a.numFrames {
				return fmt.Errorf("%s block %d order %d exceeds range", what, start, order)
			}
			if covered[f] {
				return fmt.Errorf("frame %d covered twice", f)
			}
			covered[f] = true
		}
		return nil
	}
	for o, blocks := range a.freeSet {
		for f := range blocks { //magevet:ok validation only: order affects at most which violation is reported first
			if int(f)%(1<<o) != 0 {
				return fmt.Errorf("free block %d misaligned for order %d", f, o)
			}
			if err := add(f, o, "free"); err != nil {
				return err
			}
			total += 1 << o
		}
	}
	if total != a.freeCount {
		return fmt.Errorf("freeCount %d != free-list total %d", a.freeCount, total)
	}
	for f, o := range a.blockOrd { //magevet:ok validation only: order affects at most which violation is reported first
		if err := add(f, o, "allocated"); err != nil {
			return err
		}
	}
	if len(covered) != a.numFrames {
		return fmt.Errorf("covered %d frames, want %d", len(covered), a.numFrames)
	}
	return nil
}
