// Package swapspace implements the remote ("swap") allocator EP₃: the
// component that decides where on the far-memory node an evicted page's
// content lives.
//
// Two designs from the paper:
//
//   - GlobalSwapMap: the Linux swap subsystem — a bitmap of remote slots
//     guarded by one spinlock, with a next-fit scan pointer. The paper
//     identifies this lock as Hermit's dominant circulation bottleneck
//     (§3.3.3).
//   - DirectMap: MAGE's (and DiLOS's) VMA-level direct mapping — local
//     page offset i maps to remote offset i, eliminating allocation
//     entirely (§4.2.3: "the remote memory node is usually large and
//     cheap").
package swapspace

import (
	"fmt"

	"mage/internal/invariant"
	"mage/internal/sim"
)

// Entry identifies a remote page slot.
type Entry int64

// NilEntry is the invalid entry.
const NilEntry Entry = -1

// Allocator assigns remote slots to evicted pages.
type Allocator interface {
	// Alloc reserves a remote slot for virtual page `page`.
	Alloc(p *sim.Proc, page uint64) (Entry, bool)
	// Free releases a slot when its page is faulted back in.
	Free(p *sim.Proc, e Entry)
	// FreeSlots returns the number of unreserved slots.
	FreeSlots() int
	// Name identifies the design.
	Name() string
	// LockWaitNs returns cumulative lock wait (contention metric).
	LockWaitNs() int64
}

// Costs parameterizes the swap-map design.
type Costs struct {
	// MapHold is the critical-section length per alloc/free under the
	// global swap lock.
	MapHold sim.Time
	// ScanPerSlot is the added cost per bitmap slot examined.
	ScanPerSlot sim.Time
}

// DefaultCosts matches a Linux-like swap map.
func DefaultCosts() Costs {
	return Costs{MapHold: 260, ScanPerSlot: 4}
}

// GlobalSwapMap is the Linux design: one locked slot map. Lookup is O(1)
// host-side (a free stack); the simulated cost models the cluster-hinted
// bitmap scan of the Linux swap allocator.
type GlobalSwapMap struct {
	mu       *sim.Mutex
	used     []bool
	freeList []Entry
	costs    Costs
	// scanSlots is the modeled number of bitmap slots examined per alloc
	// (cluster hints keep this small in Linux).
	scanSlots int
	ops       uint64 // mutation count, drives periodic magecheck validation
}

// NewGlobalSwapMap returns a map of slots remote slots.
func NewGlobalSwapMap(eng *sim.Engine, slots int, costs Costs) *GlobalSwapMap {
	if slots <= 0 {
		panic(fmt.Sprintf("swapspace: invalid slot count %d", slots))
	}
	g := &GlobalSwapMap{
		mu:        sim.NewMutex(eng, "swap.map"),
		used:      make([]bool, slots),
		costs:     costs,
		scanSlots: 8,
	}
	// LIFO over descending entries so the first allocations come out in
	// ascending order, matching a fresh swap device.
	for i := slots - 1; i >= 0; i-- {
		g.freeList = append(g.freeList, Entry(i))
	}
	return g
}

func (g *GlobalSwapMap) Name() string      { return "global-swap-map" }
func (g *GlobalSwapMap) FreeSlots() int    { return len(g.freeList) }
func (g *GlobalSwapMap) LockWaitNs() int64 { return g.mu.WaitNs }

// ReserveFirst reserves slots [0, n) at init time, in O(n).
func (g *GlobalSwapMap) ReserveFirst(n int) {
	if n < 0 || n > len(g.used) {
		panic(fmt.Sprintf("swapspace: bad ReserveFirst(%d)", n))
	}
	for i := 0; i < n; i++ {
		if g.used[i] {
			panic(fmt.Sprintf("swapspace: ReserveFirst over used slot %d", i))
		}
		g.used[i] = true
	}
	nl := g.freeList[:0]
	for _, fe := range g.freeList {
		if int(fe) >= n {
			nl = append(nl, fe)
		}
	}
	g.freeList = nl
}

// Alloc takes a free slot under the global lock.
func (g *GlobalSwapMap) Alloc(p *sim.Proc, _ uint64) (Entry, bool) {
	g.mu.Lock(p)
	defer g.mu.Unlock(p)
	p.Sleep(g.costs.MapHold + sim.Time(g.scanSlots)*g.costs.ScanPerSlot)
	if len(g.freeList) == 0 {
		return NilEntry, false
	}
	e := g.freeList[len(g.freeList)-1]
	g.freeList = g.freeList[:len(g.freeList)-1]
	g.used[e] = true
	if invariant.Enabled {
		g.checkConsistency()
	}
	return e, true
}

// FreeRaw releases a slot with no simulated cost; used only for zero-time
// warm-start population before a run begins.
func (g *GlobalSwapMap) FreeRaw(e Entry) {
	if e < 0 || int(e) >= len(g.used) || !g.used[e] {
		panic(fmt.Sprintf("swapspace: bad raw free of entry %d", e))
	}
	g.used[e] = false
	g.freeList = append(g.freeList, e)
}

func (g *GlobalSwapMap) Free(p *sim.Proc, e Entry) {
	g.mu.Lock(p)
	defer g.mu.Unlock(p)
	p.Sleep(g.costs.MapHold)
	if e < 0 || int(e) >= len(g.used) || !g.used[e] {
		panic(fmt.Sprintf("swapspace: bad free of entry %d", e))
	}
	g.used[e] = false
	g.freeList = append(g.freeList, e)
	if invariant.Enabled {
		g.checkConsistency()
	}
}

// checkConsistency asserts cheap bounds on every mutation and cross-checks
// the free list against the used bitmap every 1024th, when built with
// -tags magecheck.
func (g *GlobalSwapMap) checkConsistency() {
	invariant.Assert(len(g.freeList) <= len(g.used),
		"swapspace: free list holds %d entries for %d slots", len(g.freeList), len(g.used))
	g.ops++
	if g.ops&1023 != 0 {
		return
	}
	free := 0
	for _, u := range g.used {
		if !u {
			free++
		}
	}
	invariant.Assert(free == len(g.freeList),
		"swapspace: bitmap shows %d free slots but free list holds %d", free, len(g.freeList))
	seen := make(map[Entry]struct{}, len(g.freeList))
	for _, e := range g.freeList {
		invariant.Assert(e >= 0 && int(e) < len(g.used), "swapspace: free-list entry %d out of range", e)
		invariant.Assert(!g.used[e], "swapspace: free-list entry %d marked used", e)
		_, dup := seen[e]
		invariant.Assert(!dup, "swapspace: entry %d on free list twice", e)
		seen[e] = struct{}{}
	}
}

// DirectMap is the allocation-free design: remote slot = virtual page.
type DirectMap struct {
	slots int
}

// NewDirectMap covers pages [0, slots): the remote pool is provisioned for
// the entire working set.
func NewDirectMap(slots int) *DirectMap {
	if slots <= 0 {
		panic(fmt.Sprintf("swapspace: invalid slot count %d", slots))
	}
	return &DirectMap{slots: slots}
}

func (d *DirectMap) Name() string      { return "direct-map" }
func (d *DirectMap) FreeSlots() int    { return d.slots }
func (d *DirectMap) LockWaitNs() int64 { return 0 }

// Alloc is the identity mapping: no lock, no scan, no state.
func (d *DirectMap) Alloc(_ *sim.Proc, page uint64) (Entry, bool) {
	if page >= uint64(d.slots) {
		return NilEntry, false
	}
	return Entry(page), true
}

// Free is a no-op: direct-mapped slots are never reused for other pages.
func (d *DirectMap) Free(*sim.Proc, Entry) {}
