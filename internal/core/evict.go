package core

import (
	"fmt"

	"mage/internal/buddy"
	"mage/internal/invariant"
	"mage/internal/lru"
	"mage/internal/nic"
	"mage/internal/sim"
	"mage/internal/swapspace"
	"mage/internal/tlbsim"
	"mage/internal/topo"
)

// victim is one page mid-eviction. page is tenant-local; t owns it.
// Victim selection is node-global: a batch may mix tenants.
type victim struct {
	t     *Tenant
	page  uint64
	frame buddy.Frame
	dirty bool
	entry swapspace.Entry
	// borrowed marks a victim lent to a neighbour's DRAM instead of
	// written to swap (see borrow.go): its swap slot was handed back and
	// reclaim must not record it in remoteOf.
	borrowed bool
}

// ebatch is one eviction batch moving through the pipeline stages of
// Fig 8. tlb is the TLB staging buffer (TSB) handle set; rdma is the RDMA
// staging buffer (RSB) handle.
type ebatch struct {
	victims []victim
	tlb     []*tlbsim.Completion
	rdma    *nic.Completion
	// wbBytes is the writeback size behind rdma, kept so awaitWriteback
	// can re-post the write if the fault injector drops it.
	wbBytes int64
}

// evictResult summarizes one synchronous eviction round.
type evictResult struct {
	evicted int
	tlbTime sim.Time
}

// SpawnEvictors launches the configured eviction threads. Ideal-mode
// systems evict inline at zero cost and spawn none. Evictors are a node
// resource: they serve all tenants from the shared accounting.
func (n *Node) SpawnEvictors() {
	if n.Cfg.Ideal {
		return
	}
	for j := 0; j < n.Cfg.EvictorThreads; j++ {
		j := j
		core := n.Placement.Evictor[j]
		name := n.procName(fmt.Sprintf("evictor-%d", j))
		if n.Cfg.Pipelined {
			n.Eng.Spawn(name, func(p *sim.Proc) { n.pipelinedEvictor(p, j, core) })
		} else {
			n.Eng.Spawn(name, func(p *sim.Proc) { n.batchEvictor(p, j, core) })
		}
	}
}

const evictorPollInterval = 50 * sim.Microsecond

// effectiveBatch bounds the eviction batch so that the frames held in
// staging (up to three batches per evictor in the pipelined design) stay
// under an eighth of local memory in total. The paper's TSB/RSB are
// bounded buffers for the same reason; at realistic memory sizes the
// bound never binds (3·4·256 pages ≪ an eighth of tens of GB).
func (n *Node) effectiveBatch(configured int) int {
	limit := n.Cfg.LocalMemPages / (24 * n.Cfg.EvictorThreads)
	if limit < 1 {
		limit = 1
	}
	if configured > limit {
		return limit
	}
	return configured
}

// batchEvictor is the traditional sequential eviction loop (Hermit,
// DiLOS): one batch at a time, each stage completing before the next
// begins.
func (n *Node) batchEvictor(p *sim.Proc, id int, core topo.CoreID) {
	for !n.stopped {
		// Eviction throttling: starting a batch while the remote node is
		// down would only unmap pages it cannot write back; park until
		// the scheduled recovery instead.
		if n.FaultInj != nil && n.FaultInj.Down(p.Now()) {
			n.evictorDegradedWait(p)
			continue
		}
		// Guests go home before the node evicts its own pages.
		if n.reclaimHosted(p, core) {
			continue
		}
		if !n.underPressure() {
			n.evictKick.WaitTimeout(p, evictorPollInterval)
			continue
		}
		res := n.evictOnce(p, id, core, n.effectiveBatch(n.Cfg.BatchSize), false)
		if res.evicted == 0 {
			// Candidates dry (second chances, races): back off briefly.
			p.Sleep(5 * sim.Microsecond)
		}
	}
}

// evictOnce runs one complete sequential eviction batch. force bypasses
// the demand clamp: a synchronously evicting fault-path thread needs a
// frame immediately even if background evictors have frames in flight.
func (n *Node) evictOnce(p *sim.Proc, id int, core topo.CoreID, batch int, force bool) evictResult {
	eb := n.scanAndUnmap(p, id, core, batch, force)
	if eb == nil {
		return evictResult{}
	}
	// EP₂: TLB shootdown, synchronous.
	t0 := p.Now()
	for _, c := range n.postShootdowns(p, core, eb) {
		c.Wait(p)
	}
	tlbTime := p.Now() - t0

	// EP₄: write back, synchronous (re-posted through injected faults).
	eb.rdma = n.postWriteback(p, eb)
	n.awaitWriteback(p, eb)
	n.reclaim(p, core, eb)
	return evictResult{evicted: len(eb.victims), tlbTime: tlbTime}
}

// pipelinedEvictor implements MAGE's cross-batch pipelined eviction
// (P2, Fig 8). Three batches are in flight: a new batch being scanned and
// unmapped, the previous batch waiting on TLB acknowledgements (TSB), and
// the batch before that waiting on RDMA write completion (RSB). The two
// wait stages overlap with work on the other batches.
func (n *Node) pipelinedEvictor(p *sim.Proc, id int, core topo.CoreID) {
	var tsb, rsb *ebatch
	for {
		if n.stopped && tsb == nil && rsb == nil {
			return
		}
		// Eviction throttling: with nothing in flight and the remote node
		// down, park until recovery rather than feeding the pipeline
		// batches whose writebacks are doomed. In-flight batches keep
		// draining through awaitWriteback's retry loop.
		if n.FaultInj != nil && tsb == nil && rsb == nil && n.FaultInj.Down(p.Now()) {
			n.evictorDegradedWait(p)
			continue
		}
		// Guests go home before the node evicts its own pages; the freed
		// frames may dissolve the pressure this iteration would have
		// served with a fresh batch.
		n.reclaimHosted(p, core)
		pressure := n.underPressure()
		if !pressure && tsb == nil && rsb == nil {
			if n.stopped {
				return
			}
			n.evictKick.WaitTimeout(p, evictorPollInterval)
			continue
		}
		// ① Scan the LRU partition and unmap a new batch.
		var nb *ebatch
		if pressure && !n.stopped {
			nb = n.scanAndUnmap(p, id, core, n.effectiveBatch(n.Cfg.BatchSize), false)
		}
		if nb == nil && tsb == nil && rsb == nil {
			p.Sleep(5 * sim.Microsecond)
			continue
		}
		// ③/④ Wait for the TSB batch's TLB flushes to be acknowledged.
		if tsb != nil {
			for _, c := range tsb.tlb {
				c.Wait(p)
			}
		}
		// ② Initiate TLB flushes for the new batch (send cost only).
		if nb != nil {
			nb.tlb = n.postShootdowns(p, core, nb)
		}
		// ⑥ Wait for the RSB batch's RDMA writes (re-posting any the
		// fault injector dropped: frames may not be reclaimed until
		// their content has actually reached the far node).
		if rsb != nil {
			n.awaitWriteback(p, rsb)
		}
		// ⑤ Initiate RDMA writes for the TSB batch's dirty pages.
		if tsb != nil {
			tsb.rdma = n.postWriteback(p, tsb)
		}
		// ⑦ Reclaim the RSB batch's frames.
		if rsb != nil {
			n.reclaim(p, core, rsb)
		}
		rsb, tsb = tsb, nb
	}
}

// scanAndUnmap is EP₁ plus the unmap prelude of EP₂: isolate candidates
// from the accounting structure, unmap those whose accessed bit allows it,
// and allocate their remote slots. Returns nil when no page was unmapped.
// Candidates come from the node-wide accounting, so the batch may span
// tenants: keys decode to (tenant, page) and each victim is unmapped in
// its owner's address space. The victim target shrinks to the current
// eviction deficit so that low demand is served with small batches and
// the pipeline never over-evicts; like Linux's shrink loop, scanning
// continues past second-chance rejections (up to a scan budget) until the
// target is met.
func (n *Node) scanAndUnmap(p *sim.Proc, id int, core topo.CoreID, batch int, force bool) *ebatch {
	target := batch
	if need := n.evictionDeficit(); !force && need < target {
		if need <= 0 {
			return nil
		}
		target = need
	}
	scanBudget := 4 * batch
	eb := &ebatch{}
	for len(eb.victims) < target && scanBudget > 0 {
		want := target - len(eb.victims)
		if want > scanBudget {
			want = scanBudget
		}
		cand := n.Acct.IsolateBatch(p, id, want)
		if len(cand) == 0 {
			break
		}
		scanBudget -= len(cand)
		for _, key := range cand {
			vt, pg := n.tenantPage(key)
			r := vt.AS.TryUnmap(p, pg, n.Cfg.HonorAccessedBit)
			if !r.OK {
				// Second chance (or a race): the page stays resident.
				n.Acct.Requeue(p, core, key)
				continue
			}
			if n.Cfg.LinuxMM {
				// rmap walk, swap-cache insert, cgroup uncharge per page.
				p.Sleep(n.Costs.Rmap + n.Costs.SwapCache + n.Costs.Cgroup)
			}
			entry, ok := n.Swap.Alloc(p, vt.swapBase+pg)
			if !ok {
				vt.AS.AbortEvict(p, pg)
				n.Acct.Requeue(p, core, key)
				continue
			}
			eb.victims = append(eb.victims, victim{t: vt, page: pg, frame: r.Frame, dirty: r.Dirty, entry: entry})
		}
	}
	if len(eb.victims) == 0 {
		return nil
	}
	n.inflight += len(eb.victims)
	return eb
}

// postShootdowns issues the batch's TLB invalidations in chunks of at
// most Cfg.TLBBatch pages per shootdown (§4.2.1), paying only the send
// cost; completions are returned for the pipeline to wait on. Victims are
// grouped by owning tenant in id order: each tenant's pages go only to
// that tenant's app cores, since per-core TLBs cache tenant-local page
// numbers. A single-tenant batch degenerates to the pre-split behaviour
// (one target set, TLBBatch-page chunks).
func (n *Node) postShootdowns(p *sim.Proc, core topo.CoreID, eb *ebatch) []*tlbsim.Completion {
	var out []*tlbsim.Completion
	for _, t := range n.tenants {
		var pages []uint64
		for _, v := range eb.victims {
			if v.t == t {
				pages = append(pages, v.page)
			}
		}
		if len(pages) == 0 {
			continue
		}
		targets := t.shootdownTargets(core)
		for len(pages) > 0 {
			c := n.Cfg.TLBBatch
			if c > len(pages) {
				c = len(pages)
			}
			out = append(out, n.Shooter.PostShootdown(p, core, targets, pages[:c]))
			pages = pages[c:]
		}
	}
	return out
}

// postWriteback issues one RDMA write covering the batch's pages that
// need their content pushed remotely. With direct mapping, clean pages
// already have valid remote content and are skipped; with the Linux swap
// map, the newly allocated slot is empty so every page is written.
func (n *Node) postWriteback(p *sim.Proc, eb *ebatch) *nic.Completion {
	var pagesToWrite int
	for i := range eb.victims {
		if n.needsWriteback(&eb.victims[i]) {
			pagesToWrite++
		}
	}
	// Cross-node eviction: offer the writeback set to a neighbour with
	// spare frames first; whatever a host accepts skips the swap
	// writeback entirely.
	if pagesToWrite > 0 && n.rack != nil && n.rack.Borrow {
		pagesToWrite -= n.borrowOut(p, eb, pagesToWrite)
	}
	if pagesToWrite == 0 {
		return nil
	}
	eb.wbBytes = int64(pagesToWrite) * nic.PageSize
	// TryPostWrite degenerates to PostWrite when no injector is attached.
	return n.NIC.TryPostWrite(p, eb.wbBytes, retryAttemptTimeout)
}

// reclaim is the final stage: retire the PTEs, record the remote slots,
// return the frames to circulation, and wake fault-path waiters. Eviction
// counters and trace instants are credited to each victim's owner.
func (n *Node) reclaim(p *sim.Proc, core topo.CoreID, eb *ebatch) {
	frames := make([]buddy.Frame, len(eb.victims))
	ghost, _ := n.Acct.(lru.GhostTracker)
	for i, v := range eb.victims {
		v.t.AS.CompleteEvict(p, v.page)
		if !v.borrowed && v.t.remoteOf != nil {
			v.t.remoteOf[v.page] = v.entry
		}
		if ghost != nil {
			ghost.OnEvicted(v.t.key(v.page))
		}
		frames[i] = v.frame
	}
	n.Alloc.FreeBatch(p, core, frames)
	n.inflight -= len(eb.victims)
	if invariant.Enabled {
		n.checkAccounting()
	}
	for _, t := range n.tenants {
		cnt := 0
		for _, v := range eb.victims {
			if v.t == t {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		t.EvictedPages.Add(uint64(cnt))
		if n.Trace != nil {
			n.Trace.Instant(fmt.Sprintf("reclaim-%d", cnt), "ep",
				t.ID, int(core), int64(p.Now()))
		}
	}
	n.freeWait.Broadcast()
}
