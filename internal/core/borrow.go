package core

import (
	"mage/internal/buddy"
	"mage/internal/nic"
	"mage/internal/sim"
	"mage/internal/swapspace"
	"mage/internal/topo"
)

// Cross-node eviction (remote-memory borrow). A node under pressure
// offers writeback victims to the neighbour with the most spare frames:
// the pages cross one fabric link into frames the host sets aside, and
// the swap writeback — the expensive half of eviction — is skipped.
// Three later events can end a borrow:
//
//   - the owner faults the page: it travels home over the fabric and the
//     host frame is freed (fetchBorrowed);
//   - the host comes under pressure itself: it pushes guests back before
//     evicting its own pages — the page crosses the fabric home and the
//     owner pays its own NIC writeback into its swap device
//     (reclaimHosted);
//   - nothing, and the page simply stays hosted.
//
// The owner's borrowed map and the host's hosted list both point at one
// shared borrowedPage record, and every hand-off (fault claim vs. host
// reclaim) is resolved on that record before any virtual time passes, so
// the two sides can never both think they own the page.

// borrowedPage is one page evicted into a neighbour's DRAM instead of
// swap. t/page name the owner; host and frame locate the copy.
type borrowedPage struct {
	t     *Tenant
	page  uint64
	host  int
	frame buddy.Frame
	// done marks a retired borrow: the owner fetched the page home (or a
	// reclaim landed it in swap). The host's hosted entry becomes a husk
	// that the next reclaim scan drops.
	done bool
	// reclaiming marks a borrow the host is mid-push back to the owner's
	// swap; a concurrent fault must wait for the push to land and then
	// fault from swap (claimBorrowed).
	reclaiming bool
}

// needsWriteback reports whether an evicted page's content must be
// pushed off-node: dirty pages always, and every page under the Linux
// swap map whose freshly allocated slot starts empty.
func (n *Node) needsWriteback(v *victim) bool {
	return v.dirty || n.Cfg.Swap == SwapGlobalMap
}

// borrowOut offers up to want of the batch's writeback victims to the
// neighbour with the most spare frames. On success the victims' swap
// slots (reserved by scanAndUnmap) are handed back and the pages are
// recorded as borrowed; the caller drops them from the NIC writeback.
// Returns the number of pages actually borrowed — zero when no
// neighbour can host, the fabric transfer fails, or the host's
// allocator comes up empty.
func (n *Node) borrowOut(p *sim.Proc, eb *ebatch, want int) int {
	host, budget := n.rack.pickHost(n, p.Now())
	if host == nil {
		return 0
	}
	count := want
	if count > budget {
		count = budget
	}
	var sel []*victim
	for i := range eb.victims {
		if len(sel) == count {
			break
		}
		if v := &eb.victims[i]; n.needsWriteback(v) && !v.borrowed {
			sel = append(sel, v)
		}
	}
	hostCore := host.Placement.Evictor[0]
	frames := make([]buddy.Frame, 0, len(sel))
	for len(frames) < len(sel) {
		f, ok := host.Alloc.Alloc(p, hostCore)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return 0
	}
	sel = sel[:len(frames)]
	link := n.rack.Fab.Link(n.rackIndex, host.rackIndex)
	if _, res := link.TryTransfer(p, int64(len(sel))*nic.PageSize, retryAttemptTimeout); res != nic.ReadOK {
		// The batch never left: the host frames go straight back and the
		// victims take the ordinary swap writeback.
		host.Alloc.FreeBatch(p, hostCore, frames)
		return 0
	}
	for i, v := range sel {
		v.borrowed = true
		bp := &borrowedPage{t: v.t, page: v.page, host: host.rackIndex, frame: frames[i]}
		if v.t.borrowed == nil {
			v.t.borrowed = make(map[uint64]*borrowedPage)
		}
		v.t.borrowed[v.page] = bp
		host.hosted = append(host.hosted, bp)
		host.hostedLive++
		n.Swap.Free(p, v.entry)
		n.BorrowsOut.Inc()
		host.BorrowsHosted.Inc()
	}
	return len(sel)
}

// reclaimHosted pushes guest pages back to their owners when this node
// itself comes under pressure — guests go home before the host evicts
// its own pages. Each page crosses the fabric to its owner, the owner's
// swap grants a slot and its NIC carries the writeback (the owner pays
// for its page's exile ending), and the freed frames rejoin this node's
// pool. Returns whether any frame was reclaimed.
func (n *Node) reclaimHosted(p *sim.Proc, core topo.CoreID) bool {
	if n.rack == nil || n.hostedLive == 0 || !n.underPressure() {
		return false
	}
	k := n.evictionDeficit()
	if b := n.effectiveBatch(n.Cfg.BatchSize); k > b {
		k = b
	}
	now := p.Now()
	var take, keep []*borrowedPage
	for _, bp := range n.hosted {
		if bp.done {
			continue // husk: the owner already fetched this page home
		}
		if len(take) < k && !n.rack.Fab.Link(n.rackIndex, bp.t.node.rackIndex).Down(now) {
			// Claimed before any virtual time passes: a concurrent fault
			// on this page now waits on the owner's borrowWait instead of
			// racing the push (claimBorrowed).
			bp.reclaiming = true
			take = append(take, bp)
		} else {
			keep = append(keep, bp)
		}
	}
	n.hosted = keep
	if len(take) == 0 {
		return false
	}
	n.hostedLive -= len(take)

	var frames []buddy.Frame
	for owner := range n.rack.Nodes {
		if owner == n.rackIndex {
			continue
		}
		var group []*borrowedPage
		for _, bp := range take {
			if bp.t.node.rackIndex == owner {
				group = append(group, bp)
			}
		}
		if len(group) == 0 {
			continue
		}
		own := n.rack.Nodes[owner]
		// The owner's swap grants the slots the pages should have taken
		// at eviction time.
		type granted struct {
			bp    *borrowedPage
			entry swapspace.Entry
		}
		var ok []granted
		for _, bp := range group {
			e, got := own.Swap.Alloc(p, bp.t.swapBase+bp.page)
			if !got {
				n.rehost(bp)
				continue
			}
			ok = append(ok, granted{bp, e})
		}
		if len(ok) == 0 {
			continue
		}
		bytes := int64(len(ok)) * nic.PageSize
		link := n.rack.Fab.Link(n.rackIndex, owner)
		if _, res := link.TryTransfer(p, bytes, retryAttemptTimeout); res != nic.ReadOK {
			for _, g := range ok {
				own.Swap.Free(p, g.entry)
				n.rehost(g.bp)
			}
			continue
		}
		// The owner's NIC carries the writeback into its swap device;
		// re-posted through injected faults like any eviction writeback.
		c := own.NIC.TryPostWrite(p, bytes, retryAttemptTimeout)
		attempt := 0
		for c != nil {
			c.Wait(p)
			if !c.Failed() {
				break
			}
			if c.TimedOut() {
				own.EvictTimeouts.Inc()
			}
			own.EvictRetries.Inc()
			attempt++
			p.Sleep(own.FaultInj.Jitter(retryBackoff(attempt), retryJitterFrac))
			c = own.NIC.TryPostWrite(p, bytes, retryAttemptTimeout)
		}
		for _, g := range ok {
			if g.bp.t.remoteOf != nil {
				g.bp.t.remoteOf[g.bp.page] = g.entry
			}
			delete(g.bp.t.borrowed, g.bp.page)
			g.bp.done = true
			g.bp.reclaiming = false
			frames = append(frames, g.bp.frame)
			n.BorrowReclaims.Inc()
		}
		own.borrowWait.Broadcast()
	}
	if len(frames) == 0 {
		return false
	}
	n.Alloc.FreeBatch(p, core, frames)
	n.freeWait.Broadcast()
	return true
}

// rehost returns a claimed-but-unmoved guest page to the hosted list
// (swap full, link faulted mid-reclaim) and releases any fault-path
// thread parked on it.
func (n *Node) rehost(bp *borrowedPage) {
	bp.reclaiming = false
	n.hosted = append(n.hosted, bp)
	n.hostedLive++
	bp.t.node.borrowWait.Broadcast()
}

// borrowedEntry returns the live borrow record for a page, or nil.
func (t *Tenant) borrowedEntry(page uint64) *borrowedPage {
	if t.borrowed == nil {
		return nil
	}
	return t.borrowed[page]
}

// claimBorrowed resolves a faulting page's borrow state: nil when the
// page is not borrowed, otherwise the claimed record (removed from the
// map, so the host's reclaim scan skips it). A page mid-reclaim is
// waited out — once the host's push lands the page is in this node's
// swap and the fault proceeds down the ordinary remote-read path.
func (t *Tenant) claimBorrowed(p *sim.Proc, page uint64) *borrowedPage {
	nd := t.node
	if nd.rack == nil || t.borrowed == nil {
		return nil
	}
	for {
		bp := t.borrowed[page]
		if bp == nil {
			return nil
		}
		if !bp.reclaiming {
			delete(t.borrowed, page)
			bp.done = true
			nd.rack.Nodes[bp.host].hostedLive--
			return bp
		}
		nd.borrowWait.Wait(p)
	}
}

// fetchBorrowed pulls a claimed borrowed page home over the fabric,
// retrying through link faults exactly as remoteRead retries through
// NIC faults, then frees the host's frame. The fault path can never
// abandon the page, so this only returns on success.
func (t *Tenant) fetchBorrowed(p *sim.Proc, bp *borrowedPage) {
	nd := t.node
	host := nd.rack.Nodes[bp.host]
	link := nd.rack.Fab.Link(nd.rackIndex, bp.host)
	attempt := 0
	for {
		_, res := link.TryTransfer(p, nic.PageSize, retryAttemptTimeout)
		if res == nic.ReadOK {
			break
		}
		if res == nic.ReadTimeout {
			t.FaultTimeouts.Inc()
		}
		attempt++
		if attempt >= retryMaxAttempts {
			t.FaultGiveUps.Inc()
			if inj := link.FaultInjector(); inj != nil {
				t.degradedWait(p, inj)
			} else {
				p.Sleep(retryMaxBackoff)
			}
			attempt = 0
			continue
		}
		t.FaultRetries.Inc()
		d := retryBackoff(attempt)
		if inj := link.FaultInjector(); inj != nil {
			d = inj.Jitter(d, retryJitterFrac)
		}
		t0 := p.Now()
		p.Sleep(d)
		t.RetryWait.Record(int64(p.Now() - t0))
	}
	host.Alloc.Free(p, host.Placement.Evictor[0], bp.frame)
	host.freeWait.Broadcast()
	t.BorrowFetches.Inc()
}
