// Package pgtable implements the virtual-memory metadata substrate: page
// table entries with present/accessed/dirty bits, VMAs, and the
// synchronization models the compared systems use around them.
//
// Three lock models reproduce the designs from §3.2 and §5 of the paper:
//
//   - LockGlobal: one lock for the whole address space (the coarse
//     VMA/address-space locking that bottlenecks Hermit on Linux).
//   - LockSharded: fixed page-range shards ("interval-tree-based shards",
//     Mage^LNX §5.1).
//   - LockPerPTE: synchronization embedded in the PTE itself with no
//     shared lock (DiLOS and Mage^LIB's unified page table §5.2).
//
// The PTE state machine doubles as the swap-cache replacement: a page in
// StateFaulting is being fetched by exactly one thread and concurrent
// faulting threads wait on the entry, which deduplicates fault-ins the way
// the unified page table does.
package pgtable

import (
	"fmt"
	"sort"

	"mage/internal/buddy"
	"mage/internal/invariant"
	"mage/internal/sim"
	"mage/internal/stats"
)

// PageState is the lifecycle state of one virtual page.
type PageState uint8

const (
	// StateRemote: the page's content lives on the far-memory node.
	StateRemote PageState = iota
	// StatePresent: mapped to a local frame.
	StatePresent
	// StateFaulting: a fault-in is in flight; waiters queue on the PTE.
	StateFaulting
	// StateEvicting: unmapped by the eviction path; writeback in flight.
	StateEvicting
	// StateZeroFill: never-populated anonymous memory; the first fault
	// allocates a zeroed frame with no remote fetch. Once evicted the
	// page becomes StateRemote like any other.
	StateZeroFill
)

func (s PageState) String() string {
	switch s {
	case StateRemote:
		return "remote"
	case StatePresent:
		return "present"
	case StateFaulting:
		return "faulting"
	case StateEvicting:
		return "evicting"
	case StateZeroFill:
		return "zero-fill"
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// PTE is one page-table entry.
type PTE struct {
	State    PageState
	Frame    buddy.Frame
	Accessed bool
	Dirty    bool
	waiters  *sim.WaitQueue
}

// LockModel selects the synchronization design.
type LockModel int

const (
	// LockGlobal uses one address-space-wide mutex.
	LockGlobal LockModel = iota
	// LockSharded uses fixed page-range shards.
	LockSharded
	// LockPerPTE embeds synchronization in the entry (no shared mutex).
	LockPerPTE
)

func (m LockModel) String() string {
	switch m {
	case LockGlobal:
		return "global"
	case LockSharded:
		return "sharded"
	case LockPerPTE:
		return "per-pte"
	}
	return fmt.Sprintf("LockModel(%d)", int(m))
}

// Costs parameterizes PTE manipulation. Virtual ns.
type Costs struct {
	// Walk is the software page-table walk on entry to the fault handler.
	Walk sim.Time
	// Update is one PTE read-modify-write.
	Update sim.Time
	// LockHold is the critical-section length under LockGlobal/LockSharded.
	LockHold sim.Time
	// PerPTESync is the cost of the embedded-synchronization fast path.
	PerPTESync sim.Time
}

// DefaultCosts returns costs in line with commodity kernels.
func DefaultCosts() Costs {
	return Costs{Walk: 90, Update: 120, LockHold: 110, PerPTESync: 40}
}

// VMA is a virtual memory area covering pages [Start, End).
type VMA struct {
	Start, End uint64
	Name       string
}

// AddressSpace is one application's page table.
type AddressSpace struct {
	numPages uint64
	ptes     []PTE
	vmas     []VMA
	model    LockModel
	costs    Costs
	global   *sim.Mutex
	shards   []*sim.Mutex
	shardSz  uint64

	resident int

	// Label identifies this address space in invariant and panic
	// messages — multi-tenant nodes set it to the owning tenant's id so a
	// violation names the tenant it occurred in. Empty on standalone use.
	Label string

	// Faults counts BeginFault calls that initiated a fetch.
	Faults stats.Counter
	// DedupWaits counts faults absorbed by an in-flight fetch.
	DedupWaits stats.Counter
}

// New builds an address space of numPages pages with the given lock model.
// shards is the shard count for LockSharded (ignored otherwise; must be
// >= 1).
func New(eng *sim.Engine, numPages uint64, model LockModel, shards int, costs Costs) *AddressSpace {
	if numPages == 0 {
		panic("pgtable: empty address space")
	}
	as := &AddressSpace{
		numPages: numPages,
		ptes:     make([]PTE, numPages),
		model:    model,
		costs:    costs,
	}
	// A remote page owns no frame; the Frame zero value is a valid index,
	// so entries must start at NilFrame explicitly.
	for i := range as.ptes {
		as.ptes[i].Frame = buddy.NilFrame
	}
	switch model {
	case LockGlobal:
		as.global = sim.NewMutex(eng, "as.global")
	case LockSharded:
		if shards < 1 {
			shards = 1
		}
		as.shardSz = (numPages + uint64(shards) - 1) / uint64(shards)
		for i := 0; i < shards; i++ {
			as.shards = append(as.shards, sim.NewMutex(eng, "as.shard"))
		}
	}
	return as
}

// NumPages returns the address-space size in pages.
func (as *AddressSpace) NumPages() uint64 { return as.numPages }

// Resident returns the number of pages currently in StatePresent or
// StateEvicting (they still occupy a local frame).
func (as *AddressSpace) Resident() int { return as.resident }

// LockWaitNs returns the cumulative wait on the address-space locks.
func (as *AddressSpace) LockWaitNs() int64 {
	switch as.model {
	case LockGlobal:
		return as.global.WaitNs
	case LockSharded:
		var t int64
		for _, s := range as.shards {
			t += s.WaitNs
		}
		return t
	}
	return 0
}

// who names this address space in diagnostics: "pgtable" when unlabeled,
// "pgtable[<label>]" otherwise.
func (as *AddressSpace) who() string {
	if as.Label == "" {
		return "pgtable"
	}
	return "pgtable[" + as.Label + "]"
}

// Map registers a VMA. Areas must not overlap.
func (as *AddressSpace) Map(start, end uint64, name string) VMA {
	if start >= end || end > as.numPages {
		panic(fmt.Sprintf("%s: bad VMA [%d,%d) in %d pages", as.who(), start, end, as.numPages))
	}
	for _, v := range as.vmas {
		if start < v.End && v.Start < end {
			panic(fmt.Sprintf("%s: VMA [%d,%d) overlaps %q", as.who(), start, end, v.Name))
		}
	}
	v := VMA{Start: start, End: end, Name: name}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return v
}

// FindVMA returns the VMA containing page, or ok=false (a segfault in a
// real system).
func (as *AddressSpace) FindVMA(page uint64) (VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > page })
	if i < len(as.vmas) && as.vmas[i].Start <= page {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// PTEOf returns a read-only copy of the entry (for tests and metrics).
func (as *AddressSpace) PTEOf(page uint64) PTE { return as.ptes[page] }

func (as *AddressSpace) lockOf(page uint64) *sim.Mutex {
	switch as.model {
	case LockGlobal:
		return as.global
	case LockSharded:
		return as.shards[page/as.shardSz]
	}
	return nil
}

// lock acquires the metadata lock covering page and charges the
// model-dependent cost.
func (as *AddressSpace) lock(p *sim.Proc, page uint64) *sim.Mutex {
	mu := as.lockOf(page)
	if mu == nil {
		p.Sleep(as.costs.PerPTESync)
		return nil
	}
	mu.Lock(p)
	p.Sleep(as.costs.LockHold)
	return mu
}

func unlock(p *sim.Proc, mu *sim.Mutex) {
	if mu != nil {
		mu.Unlock(p)
	}
}

// HardwareAccess models the MMU touching a present page: sets the
// accessed (and dirty) bits with no software cost. It reports whether the
// page was present (a TLB/PT hit) — if false the caller must take a fault.
func (as *AddressSpace) HardwareAccess(page uint64, write bool) bool {
	pte := &as.ptes[page]
	if pte.State != StatePresent {
		return false
	}
	pte.Accessed = true
	if write {
		pte.Dirty = true
	}
	return true
}

// FaultDisposition tells the fault handler what to do next.
type FaultDisposition int

const (
	// FaultFetch: the caller owns the fault and must fetch the page, then
	// call CompleteFault.
	FaultFetch FaultDisposition = iota
	// FaultAlreadyPresent: another thread resolved it (or it was never
	// absent); retry the access.
	FaultAlreadyPresent
	// FaultFetchZero: the caller owns the fault but the page is
	// anonymous zero-fill memory — allocate a frame, no remote fetch.
	FaultFetchZero
)

// BeginFault enters the fault handler for page. If another fault for the
// same page is in flight (or the page is mid-eviction), the caller waits —
// the unified-page-table dedup — and receives FaultAlreadyPresent or, if
// the page went remote meanwhile, ownership of a new fetch.
func (as *AddressSpace) BeginFault(p *sim.Proc, page uint64) FaultDisposition {
	p.Sleep(as.costs.Walk)
	for {
		mu := as.lock(p, page)
		pte := &as.ptes[page]
		switch pte.State {
		case StatePresent:
			unlock(p, mu)
			return FaultAlreadyPresent
		case StateRemote:
			pte.State = StateFaulting
			p.Sleep(as.costs.Update)
			if invariant.Enabled {
				as.checkPTE(page)
			}
			unlock(p, mu)
			as.Faults.Inc()
			return FaultFetch
		case StateZeroFill:
			pte.State = StateFaulting
			p.Sleep(as.costs.Update)
			if invariant.Enabled {
				as.checkPTE(page)
			}
			unlock(p, mu)
			as.Faults.Inc()
			return FaultFetchZero
		case StateFaulting, StateEvicting:
			// Wait for the in-flight operation, then re-evaluate.
			if pte.waiters == nil {
				pte.waiters = new(sim.WaitQueue)
			}
			w := pte.waiters
			unlock(p, mu)
			as.DedupWaits.Inc()
			w.Wait(p)
		}
	}
}

// CompleteFault installs frame for page and wakes deduplicated waiters.
// Only the thread that received FaultFetch may call it.
func (as *AddressSpace) CompleteFault(p *sim.Proc, page uint64, frame buddy.Frame) {
	mu := as.lock(p, page)
	pte := &as.ptes[page]
	if pte.State != StateFaulting {
		panic(fmt.Sprintf("%s: CompleteFault on page %d in state %v", as.who(), page, pte.State))
	}
	pte.State = StatePresent
	pte.Frame = frame
	pte.Accessed = true
	pte.Dirty = false
	p.Sleep(as.costs.Update)
	as.resident++
	if pte.waiters != nil {
		pte.waiters.Broadcast()
		pte.waiters = nil
	}
	if invariant.Enabled {
		as.checkPTE(page)
	}
	unlock(p, mu)
}

// UnmapResult describes TryUnmap's outcome.
type UnmapResult struct {
	OK    bool
	Frame buddy.Frame
	Dirty bool
}

// TryUnmap is the eviction path's unmap step (EP₂ prelude): if page is
// present and its accessed bit is clear, the PTE transitions to
// StateEvicting and the frame is returned. If the accessed bit is set,
// the bit is cleared and the unmap is refused (the CLOCK second chance).
// Pages not present are refused.
func (as *AddressSpace) TryUnmap(p *sim.Proc, page uint64, honorAccessed bool) UnmapResult {
	mu := as.lock(p, page)
	defer unlock(p, mu)
	pte := &as.ptes[page]
	if pte.State != StatePresent {
		return UnmapResult{}
	}
	if honorAccessed && pte.Accessed {
		pte.Accessed = false
		p.Sleep(as.costs.Update)
		return UnmapResult{}
	}
	pte.State = StateEvicting
	p.Sleep(as.costs.Update)
	if invariant.Enabled {
		as.checkPTE(page)
	}
	return UnmapResult{OK: true, Frame: pte.Frame, Dirty: pte.Dirty}
}

// AbortFault abandons a fault that received FaultFetch (e.g. a prefetch
// dropped for lack of free frames): the PTE returns to StateRemote and
// queued waiters are woken to retry (one of them will take over the fetch).
func (as *AddressSpace) AbortFault(p *sim.Proc, page uint64) {
	mu := as.lock(p, page)
	pte := &as.ptes[page]
	if pte.State != StateFaulting {
		panic(fmt.Sprintf("%s: AbortFault on page %d in state %v", as.who(), page, pte.State))
	}
	pte.State = StateRemote
	p.Sleep(as.costs.Update)
	if pte.waiters != nil {
		pte.waiters.Broadcast()
		pte.waiters = nil
	}
	if invariant.Enabled {
		as.checkPTE(page)
	}
	unlock(p, mu)
}

// AbortEvict reverses TryUnmap: the page returns to StatePresent with its
// frame intact (used when remote slot allocation fails mid-eviction).
// Queued faulting threads are woken and will observe the present page.
func (as *AddressSpace) AbortEvict(p *sim.Proc, page uint64) {
	mu := as.lock(p, page)
	pte := &as.ptes[page]
	if pte.State != StateEvicting {
		panic(fmt.Sprintf("%s: AbortEvict on page %d in state %v", as.who(), page, pte.State))
	}
	pte.State = StatePresent
	pte.Accessed = true
	p.Sleep(as.costs.Update)
	if pte.waiters != nil {
		pte.waiters.Broadcast()
		pte.waiters = nil
	}
	if invariant.Enabled {
		as.checkPTE(page)
	}
	unlock(p, mu)
}

// CompleteEvict finishes eviction of an unmapped page: the PTE returns to
// StateRemote and any faulting threads that queued behind the eviction are
// woken to fetch it back.
func (as *AddressSpace) CompleteEvict(p *sim.Proc, page uint64) {
	mu := as.lock(p, page)
	pte := &as.ptes[page]
	if pte.State != StateEvicting {
		panic(fmt.Sprintf("%s: CompleteEvict on page %d in state %v", as.who(), page, pte.State))
	}
	pte.State = StateRemote
	pte.Frame = buddy.NilFrame
	pte.Accessed = false
	pte.Dirty = false
	p.Sleep(as.costs.Update)
	as.resident--
	if pte.waiters != nil {
		pte.waiters.Broadcast()
		pte.waiters = nil
	}
	if invariant.Enabled {
		as.checkPTE(page)
	}
	unlock(p, mu)
}

// InstallRaw makes page resident on frame with no simulated cost; used
// only for zero-time warm-start population before a run begins. The page
// must currently be remote.
func (as *AddressSpace) InstallRaw(page uint64, frame buddy.Frame) {
	pte := &as.ptes[page]
	if pte.State != StateRemote && pte.State != StateZeroFill {
		panic(fmt.Sprintf("%s: InstallRaw on page %d in state %v", as.who(), page, pte.State))
	}
	pte.State = StatePresent
	pte.Frame = frame
	pte.Accessed = true
	as.resident++
	if invariant.Enabled {
		as.checkPTE(page)
	}
}

// MarkZeroFill marks remote pages [start, end) as never-populated
// anonymous memory (init-time, no simulated cost).
func (as *AddressSpace) MarkZeroFill(start, end uint64) {
	for pg := start; pg < end && pg < as.numPages; pg++ {
		pte := &as.ptes[pg]
		if pte.State != StateRemote {
			panic(fmt.Sprintf("%s: MarkZeroFill on page %d in state %v", as.who(), pg, pte.State))
		}
		pte.State = StateZeroFill
	}
}

// checkPTE validates one entry against the PTE state machine: a present
// or evicting page owns exactly one frame; a remote, zero-fill, or
// faulting page owns none and carries no stale accessed/dirty bits
// (dirty ⇒ present∨evicting, accessed ⇒ present∨evicting). Called from
// every state transition when built with -tags magecheck.
func (as *AddressSpace) checkPTE(page uint64) {
	pte := &as.ptes[page]
	switch pte.State {
	case StatePresent, StateEvicting:
		invariant.Assert(pte.Frame != buddy.NilFrame,
			"%s: page %d %v without a frame", as.who(), page, pte.State)
	default:
		invariant.Assert(pte.Frame == buddy.NilFrame,
			"%s: page %d %v owns frame %d", as.who(), page, pte.State, pte.Frame)
		invariant.Assert(!pte.Dirty, "%s: page %d dirty while %v", as.who(), page, pte.State)
		invariant.Assert(!pte.Accessed, "%s: page %d accessed while %v", as.who(), page, pte.State)
	}
	invariant.Assert(as.resident >= 0 && uint64(as.resident) <= as.numPages,
		"%s: resident count %d outside [0,%d]", as.who(), as.resident, as.numPages)
}
