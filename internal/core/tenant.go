package core

import (
	"fmt"

	"mage/internal/buddy"
	"mage/internal/faultinject"
	"mage/internal/nic"
	"mage/internal/pgtable"
	"mage/internal/prefetch"
	"mage/internal/sim"
	"mage/internal/stats"
	"mage/internal/swapspace"
	"mage/internal/topo"
)

// Tenant is one application's slice of a Node: its address space and
// remote-slot table, its core affinity, its retry/degraded state, and a
// full per-tenant metrics block. Everything it shares with its co-tenants
// — frames, accounting, NIC, evictors — lives on the Node.
type Tenant struct {
	node *Node

	// ID is the tenant's index on the node (0 on single-tenant systems);
	// it is the tenant's trace PID and the high bits of its accounting
	// keys.
	ID int
	// Spec is the tenant's shape as passed to NewNode.
	Spec TenantSpec

	AS *pgtable.AddressSpace
	// remoteOf maps a tenant-local page to its swap entry while remote;
	// only used with SwapGlobalMap (direct mapping needs no table).
	remoteOf []swapspace.Entry
	// swapBase offsets this tenant's identity slots in the shared remote
	// device: tenant-local page p starts at slot swapBase + p.
	swapBase uint64
	// borrowed maps a tenant-local page to its borrow record while the
	// page lives in a neighbour node's DRAM instead of swap (rack-only;
	// see borrow.go). Lookup-only — no iteration, so the map's order
	// never touches the event sequence.
	borrowed map[uint64]*borrowedPage

	// Cores is the tenant's contiguous slice of the node placement, one
	// entry per app thread; appCores is its distinct ascending core set
	// (the tenant's TLB shootdown targets).
	Cores    []topo.CoreID
	appCores []topo.CoreID

	// idealFIFO is the zero-cost CLOCK used in Ideal mode.
	idealFIFO []uint64

	// Inj is the tenant's own fault injector (nil unless Spec.FaultPlan
	// enables one); tenants without one read through the node injector.
	Inj *faultinject.Injector

	// Fault-path robustness state. Degraded parking is per-tenant: one
	// tenant riding out its own link outage must not park its co-tenants.
	FaultRetries  stats.Counter // fault-path attempts retried after NACK/timeout
	FaultTimeouts stats.Counter // fault-path attempts that burned a full AttemptTimeout
	FaultGiveUps  stats.Counter // rounds abandoned after MaxAttempts (→ degraded mode)
	RetryWait     *stats.Histogram
	Degraded      stats.Spans

	// Metrics (all in virtual time / simulated events).
	FaultLatency *stats.Histogram
	FaultBreak   *stats.Breakdown
	MajorFaults  stats.Counter
	MinorFaults  stats.Counter
	SyncEvicts   stats.Counter
	EvictedPages stats.Counter
	Prefetched   stats.Counter
	PrefetchDrop stats.Counter
	// BorrowFetches counts borrowed pages faulted home over the fabric
	// (rack-only; zero off-rack).
	BorrowFetches stats.Counter
	FreeWaitNs    int64
	AccessOps     uint64 // total completed accesses (host counter)
}

// key encodes a tenant-local page number as a node-wide accounting key.
func (t *Tenant) key(pg uint64) uint64 {
	return uint64(t.ID)<<tenantPageBits | pg
}

// injector returns the injector governing this tenant's remote reads:
// its own when it has one, otherwise the node-wide injector (which may
// be nil — fault-free).
func (t *Tenant) injector() *faultinject.Injector {
	if t.Inj != nil {
		return t.Inj
	}
	return t.node.FaultInj
}

// shootdownTargets returns the cores whose TLBs may cache this tenant's
// address space, excluding the initiator.
func (t *Tenant) shootdownTargets(from topo.CoreID) []topo.CoreID {
	out := make([]topo.CoreID, 0, len(t.appCores))
	for _, c := range t.appCores {
		if c != from {
			out = append(out, c)
		}
	}
	return out
}

// PrepopulateFront makes pages [0, n) resident contiguously (up to the
// free-page high watermark), leaving any shortfall at the END of the
// range. Use it when the workload's initial working set occupies the
// front of the address space and must start fully resident — the GUPS and
// Metis phase-change experiments, whose first phase is meant to run
// fault-free (§6.2).
func (t *Tenant) PrepopulateFront(n int) int {
	return t.prepopulate(n, false)
}

// Prepopulate makes pages [0, n) resident at zero simulated cost — the
// warm start the paper's experiments assume ("the local VM is configured
// to retain (100-x)% of the WSS"). Population stops at the free-page high
// watermark; the unpopulated gap is spread evenly over the range so no
// single thread's shard concentrates the cold-start faults. It returns
// the number of pages made resident and must be called before Run. The
// budget is node-wide: co-located tenants draw down the same pool.
func (t *Tenant) Prepopulate(n int) int {
	return t.prepopulate(n, true)
}

func (t *Tenant) prepopulate(n int, spread bool) int {
	nd := t.node
	limit := nd.PrepopBudget()
	if n > int(t.Spec.TotalPages) {
		n = int(t.Spec.TotalPages)
	}
	count := n
	if count > limit {
		count = limit
	}
	// Spread mode distributes the unpopulated gap evenly over the range
	// (Bresenham-style skip): concentrating it at the end would hand all
	// cold-start faults to the thread whose shard covers the tail and
	// skew every makespan measurement.
	skip := 0
	if spread {
		skip = n - count
	}
	acc := 0
	populated := 0
	for pg := 0; pg < n && populated < limit; pg++ {
		acc += skip
		if acc >= n {
			acc -= n
			continue
		}
		f, ok := nd.Alloc.AllocRaw()
		if !ok {
			break
		}
		t.AS.InstallRaw(uint64(pg), f)
		if nd.Cfg.Ideal {
			t.idealFIFO = append(t.idealFIFO, uint64(pg))
		} else {
			core := t.appCores[pg%len(t.appCores)]
			nd.Acct.InsertRaw(core, t.key(uint64(pg)))
		}
		if t.remoteOf != nil {
			if e := t.remoteOf[pg]; e != swapspace.NilEntry {
				nd.Swap.(*swapspace.GlobalSwapMap).FreeRaw(e)
				t.remoteOf[pg] = swapspace.NilEntry
			}
		}
		populated++
	}
	nd.prepopulated += populated
	return populated
}

// MarkZeroFill declares pages [start, end) to be anonymous memory with no
// initial remote content: their first faults allocate zeroed frames
// without an RDMA read (Metis's intermediate buffers, freshly mmapped
// heaps). Must be called before Prepopulate/Run. For swap-map systems the
// pages' pre-reserved slots are released.
func (t *Tenant) MarkZeroFill(start, end uint64) {
	t.AS.MarkZeroFill(start, end)
	if t.remoteOf != nil {
		gm := t.node.Swap.(*swapspace.GlobalSwapMap)
		for pg := start; pg < end && pg < t.Spec.TotalPages; pg++ {
			if e := t.remoteOf[pg]; e != swapspace.NilEntry {
				gm.FreeRaw(e)
				t.remoteOf[pg] = swapspace.NilEntry
			}
		}
	}
}

// Fault handles a major page fault for page on behalf of thread tid
// running on core. It returns when the access can be retried.
func (t *Tenant) Fault(p *sim.Proc, tid int, core topo.CoreID, page uint64) {
	nd := t.node
	if nd.Cfg.Ideal {
		t.idealFault(p, core, page)
		return
	}
	t0 := p.Now()

	entry := nd.Costs.FaultEntry
	if nd.Cfg.Stack == nic.StackKernel {
		entry += nd.Costs.KernelFaultPath
	}
	if nd.Cfg.Virtualized {
		entry += nd.Costs.VirtFaultOverhead
	}
	p.Sleep(entry)

	disp := t.AS.BeginFault(p, page)
	if disp == pgtable.FaultAlreadyPresent {
		t.MinorFaults.Inc()
		p.Sleep(nd.Costs.FaultExit)
		return
	}
	zeroFill := disp == pgtable.FaultFetchZero
	tBegin := p.Now()

	// FP₁: obtain a free local frame; this is where synchronous eviction
	// (Hermit/DiLOS) or free-page waiting (MAGE) happens.
	frame, tlbInFP := t.allocFrame(p, tid, core)
	tAlloc := p.Now()

	// Resolve the page's borrow state before touching the swap slot: a
	// borrowed page has no slot to free, and a page mid-reclaim must be
	// waited out so its slot exists by the time the release step looks.
	var bp *borrowedPage
	if !zeroFill {
		bp = t.claimBorrowed(p, page)
	}

	// Linux charges swap-cache insertion and cgroup accounting per fault.
	if nd.Cfg.LinuxMM {
		p.Sleep(nd.Costs.SwapCache + nd.Costs.Cgroup)
	}
	// Release the swap slot the page occupied (Linux frees the entry on
	// swap-in; direct mapping has nothing to free).
	if !zeroFill && t.remoteOf != nil {
		if e := t.remoteOf[page]; e != swapspace.NilEntry {
			nd.Swap.Free(p, e)
			t.remoteOf[page] = swapspace.NilEntry
		}
	}
	tSwap := p.Now()

	// FP₂: fetch the page — from the neighbour hosting it when borrowed,
	// otherwise from the swap device — or clear a fresh frame for
	// anonymous memory that has no remote content yet. Both fetch paths
	// retry through injected faults; without an injector remoteRead is
	// exactly NIC.Read.
	switch {
	case zeroFill:
		p.Sleep(nd.Costs.ZeroFill)
	case bp != nil:
		t.fetchBorrowed(p, bp)
	default:
		t.remoteRead(p, nic.PageSize)
	}
	tRead := p.Now()

	// Install the translation, then FP₃: record the page as resident.
	t.AS.CompleteFault(p, page, frame)
	if bp != nil && t.remoteOf == nil {
		// Direct mapping: the slot at the page's fixed remote address
		// went stale while the authoritative copy sat on the host, so
		// the page must leave dirty on its next eviction.
		t.AS.HardwareAccess(page, true)
	}
	tComplete := p.Now()
	nd.Acct.Insert(p, core, t.key(page))
	tAcct := p.Now()

	p.Sleep(nd.Costs.FaultExit)

	if nd.freeFrames() < nd.Cfg.lowWatermarkFrames() {
		nd.kickEvictors()
	}

	t.MajorFaults.Inc()
	t.FaultLatency.Record(int64(p.Now() - t0))
	if nd.Trace != nil {
		nd.Trace.Span("major-fault", "fp", t.ID, tid,
			int64(t0), int64(p.Now()), map[string]any{"page": page})
	}
	b := t.FaultBreak
	b.Add(CompRDMA, int64(tRead-tSwap))
	b.Add(CompTLB, int64(tlbInFP))
	b.Add(CompAcct, int64(tAcct-tComplete))
	b.Add(CompAlloc, int64(tAlloc-tBegin-tlbInFP)+int64(tSwap-tAlloc))
	b.Add(CompOthers, int64(tBegin-t0)+int64(tComplete-tRead)+int64(nd.Costs.FaultExit))
	b.AddOp()
}

// allocFrame obtains a free frame for the fault path, never giving up.
// It returns the frame and the virtual time spent inside TLB shootdowns
// (non-zero only when synchronous eviction ran).
func (t *Tenant) allocFrame(p *sim.Proc, tid int, core topo.CoreID) (buddy.Frame, sim.Time) {
	nd := t.node
	var tlbTime sim.Time
	for {
		if f, ok := nd.Alloc.Alloc(p, core); ok {
			return f, tlbTime
		}
		nd.kickEvictors()
		if nd.Cfg.SyncEviction {
			// The faulting thread runs an eviction batch inline (the
			// fallback MAGE forbids under P1). The batch draws victims from
			// the shared accounting, so it may evict a co-tenant's pages.
			t.SyncEvicts.Inc()
			res := nd.evictOnce(p, tid%max(nd.Cfg.EvictorThreads, 1), core, nd.effectiveBatch(nd.Cfg.syncBatch()), true)
			tlbTime += res.tlbTime
			if res.evicted == 0 {
				// Nothing reclaimable this instant; let evictors run.
				p.Sleep(nd.Costs.EvictorWakeup)
			}
		} else {
			t0 := p.Now()
			nd.freeWait.Wait(p)
			t.FreeWaitNs += int64(p.Now() - t0)
		}
	}
}

// idealFault is the analytical baseline: only data movement, zero
// software cost, instantaneous eviction (§3.1). Ideal mode is
// single-tenant only.
func (t *Tenant) idealFault(p *sim.Proc, core topo.CoreID, page uint64) {
	nd := t.node
	t0 := p.Now()
	disp := t.AS.BeginFault(p, page)
	if disp == pgtable.FaultAlreadyPresent {
		t.MinorFaults.Inc()
		return
	}
	frame, ok := nd.Alloc.Alloc(p, core)
	for !ok {
		// Evict the oldest resident page at zero cost.
		if len(t.idealFIFO) == 0 {
			panic("core: ideal system out of frames with empty residency list")
		}
		victim := t.idealFIFO[0]
		t.idealFIFO = t.idealFIFO[1:]
		r := t.AS.TryUnmap(p, victim, false)
		if !r.OK {
			continue // victim mid-fault; skip
		}
		// Coherence is free in the ideal model: drop TLB entries directly.
		for _, c := range nd.Machine.Cores() {
			nd.Shooter.TLBOf(c.ID).FlushPage(victim)
		}
		t.AS.CompleteEvict(p, victim)
		nd.Alloc.Free(p, core, r.Frame)
		t.EvictedPages.Inc()
		frame, ok = nd.Alloc.Alloc(p, core)
	}
	if disp != pgtable.FaultFetchZero {
		nd.NIC.Read(p, nic.PageSize)
	}
	t.AS.CompleteFault(p, page, frame)
	t.idealFIFO = append(t.idealFIFO, page)
	t.MajorFaults.Inc()
	t.FaultLatency.Record(int64(p.Now() - t0))
}

// prefetchAsync issues background fetches for predicted pages. Prefetches
// never block on memory pressure: if no frame is immediately free the
// prediction is dropped.
func (t *Tenant) prefetchAsync(core topo.CoreID, pages []uint64) {
	nd := t.node
	for _, pg := range pages {
		pg := pg
		nd.Eng.Spawn(nd.procName("prefetch"), func(p *sim.Proc) {
			if t.AS.BeginFault(p, pg) == pgtable.FaultAlreadyPresent {
				return
			}
			if nd.rack != nil && t.borrowedEntry(pg) != nil {
				// Borrowed pages live on a neighbour, not in the swap
				// slot this prefetch would read; a bet is not worth a
				// fabric round trip.
				t.AS.AbortFault(p, pg)
				t.PrefetchDrop.Inc()
				return
			}
			f, ok := nd.Alloc.Alloc(p, core)
			if !ok {
				t.AS.AbortFault(p, pg)
				t.PrefetchDrop.Inc()
				nd.kickEvictors()
				return
			}
			if inj := t.injector(); inj != nil {
				// A prefetch is a bet, not an obligation: one attempt, and
				// on any injected failure the prediction is dropped before
				// its swap slot is touched.
				if _, res := nd.NIC.TryReadWith(p, nic.PageSize, retryAttemptTimeout, inj); res != nic.ReadOK {
					t.AS.AbortFault(p, pg)
					nd.Alloc.Free(p, core, f)
					t.PrefetchDrop.Inc()
					return
				}
				if t.remoteOf != nil {
					if e := t.remoteOf[pg]; e != swapspace.NilEntry {
						nd.Swap.Free(p, e)
						t.remoteOf[pg] = swapspace.NilEntry
					}
				}
				t.AS.CompleteFault(p, pg, f)
				nd.Acct.Insert(p, core, t.key(pg))
				t.Prefetched.Inc()
				if nd.freeFrames() < nd.Cfg.lowWatermarkFrames() {
					nd.kickEvictors()
				}
				return
			}
			if t.remoteOf != nil {
				if e := t.remoteOf[pg]; e != swapspace.NilEntry {
					nd.Swap.Free(p, e)
					t.remoteOf[pg] = swapspace.NilEntry
				}
			}
			nd.NIC.Read(p, nic.PageSize)
			t.AS.CompleteFault(p, pg, f)
			nd.Acct.Insert(p, core, t.key(pg))
			t.Prefetched.Inc()
			if nd.freeFrames() < nd.Cfg.lowWatermarkFrames() {
				nd.kickEvictors()
			}
		})
	}
}

// Thread drives one application thread's memory accesses against its
// tenant. Consecutive hits accumulate virtual time locally and are flushed
// in quanta, so simulating a hit costs no scheduler event.
type Thread struct {
	s       *Tenant
	p       *sim.Proc
	TID     int
	Core    topo.CoreID
	det     prefetch.Detector
	accum   sim.Time
	quantum sim.Time

	Accesses uint64
	Faults   uint64
}

// NewThread binds thread tid to its placed core.
func (t *Tenant) NewThread(p *sim.Proc, tid int) *Thread {
	nd := t.node
	var det prefetch.Detector = prefetch.None{}
	if nd.Cfg.Prefetch {
		det = prefetch.NewStride(3, prefetchDegree, t.Spec.TotalPages)
	}
	return &Thread{
		s:       t,
		p:       p,
		TID:     tid,
		Core:    t.Cores[tid%len(t.Cores)],
		det:     det,
		quantum: 4 * sim.Microsecond,
	}
}

// flushTime materializes accumulated compute time (dilated by the
// virtualization factor) plus any cycles stolen from this thread's core
// by interrupt handlers.
func (t *Thread) flushTime() {
	nd := t.s.node
	st := sim.Time(nd.Machine.Core(t.Core).DrainStolen())
	d := sim.Time(float64(t.accum)*nd.Costs.ComputeFactor) + st
	t.accum = 0
	if d > 0 {
		t.p.Sleep(d)
	}
}

// Flush forces pending virtual time out; call at end of stream.
func (t *Thread) Flush() { t.flushTime() }

// Access performs one page access costing compute ns of CPU work,
// faulting the page in if necessary.
func (t *Thread) Access(page uint64, write bool, compute sim.Time) {
	s := t.s
	nd := s.node
	t.accum += compute
	if t.accum >= t.quantum {
		t.flushTime()
	}
	for {
		tlb := nd.Shooter.TLBOf(t.Core)
		st := s.AS.PTEOf(page).State
		if st == pgtable.StateEvicting && write && tlb.Contains(page) {
			// A write through a stale entry inside the unmap→shootdown
			// window: with a clear TLB dirty bit it re-walks the (now
			// non-present) PTE and faults; conservatively treat every
			// write in the window this way. It counts no TLB hit.
			t.flushTime()
			s.Fault(t.p, t.TID, t.Core, page)
			t.Faults++
			continue
		}
		if tlb.Hit(page) {
			switch st {
			case pgtable.StatePresent:
				// A TLB-hit access does not re-walk the page table, so
				// the PTE accessed bit is NOT refreshed — the property
				// real reclaim depends on to find victims among hot
				// pages (Linux clears A-bits without flushing the TLB
				// for exactly this reason). A first write still re-walks
				// to set the dirty bit.
				if write {
					s.AS.HardwareAccess(page, write)
				}
			case pgtable.StateEvicting:
				// A read of a stale entry inside the unmap→shootdown
				// window: the frame content is intact until writeback
				// (which the eviction path only issues after the flush
				// completes), so the read succeeds against the old frame.
			default:
				// After CompleteEvict the shootdown has settled, so no
				// core may still cache the translation.
				panic(fmt.Sprintf("core: TLB coherence violated: tenant %d core %d caches page %d in state %v",
					s.ID, t.Core, page, st))
			}
			break
		}
		if s.AS.HardwareAccess(page, write) {
			// TLB miss, page walk succeeds: hardware fill.
			tlb.Touch(page)
			t.accum += nd.Costs.HWWalkFill
			break
		}
		// Major fault.
		t.flushTime()
		s.Fault(t.p, t.TID, t.Core, page)
		t.Faults++
		if proposals := t.det.OnFault(page); len(proposals) > 0 {
			s.prefetchAsync(t.Core, proposals)
		}
	}
	t.Accesses++
	s.AccessOps++
}
