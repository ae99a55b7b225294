// Health probing and replica re-admission.
//
// The prober samples every replica's STATS verb on a fixed cadence.
// Healthy replicas refresh their selection weight (free bytes) and
// load signal (in-flight depth); replicas that stop answering are
// demoted. Down replicas are re-probed with exponential backoff, and
// a replica that answers again is re-admitted only after resync —
// copying every page its shard owns back from a surviving peer — so a
// node that restarted (and lost its regions) or merely missed writes
// never serves stale pages.
//
// Resync correctness leans on two mechanisms: the write path logs the
// key of every completed write to a resyncing shard (the dirty log),
// and the final settle pass runs under the cluster's op barrier's write
// lock, which drains all in-flight ops. Every write therefore either
// lands before the bulk copy reads the page, or is in the dirty log
// when the final pass copies it — a missed write is impossible. That
// includes regions registered after the resync began: their writes are
// dirty-logged like any other, and the settle passes resolve dirty
// keys against the live region table (registering the region on the
// target if its own Register attempt missed it), never against the
// bulk copy's snapshot. Unwritten pages of such regions are zero on
// every replica, so the dirty set is exactly what needs copying.
//
// Every page a resync copies goes through one mover.
package memcluster

import (
	"errors"
	"time"

	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// proberLoop is the background health prober.
func (cl *Cluster) proberLoop() {
	defer cl.proberWG.Done()
	t := time.NewTimer(cl.opts.ProbeInterval) //magevet:ok real network client: health-probe cadence
	defer t.Stop()
	for {
		select {
		case <-cl.closed:
			return
		case <-t.C:
		}
		cl.ProbeNow()
		t.Reset(cl.opts.ProbeInterval)
	}
}

// ProbeNow runs one probe sweep synchronously: refresh weights of
// healthy replicas, demote the unresponsive, and attempt re-admission
// of down replicas whose backoff has elapsed. Exported so tests (and
// DisableProber configurations) control probe timing explicitly.
func (cl *Cluster) ProbeNow() {
	if cl.checkClosed() != nil {
		return
	}
	type cand struct {
		si int
		r  *replica
	}
	var readmits []cand
	for si, sh := range cl.shards {
		sh.mu.Lock()
		reps := append([]*replica(nil), sh.replicas...)
		sh.mu.Unlock()
		for _, r := range reps {
			sh.mu.Lock()
			healthy := r.healthy
			resyncing := r.resyncing
			c := r.c
			due := r.nextProbe.IsZero() || time.Now().After(r.nextProbe) //magevet:ok probe-backoff schedule on a real network client
			sh.mu.Unlock()
			if resyncing {
				continue
			}
			if healthy {
				h, err := c.Probe()
				if err != nil {
					if !memnode.IsTerminal(err) {
						cl.markDown(sh, r, false)
					}
					continue
				}
				sh.mu.Lock()
				r.weight, r.inflight = h.FreeBytes, h.InFlight
				sh.mu.Unlock()
				continue
			}
			if !due {
				continue
			}
			if c == nil {
				nc, err := memnode.DialOptions(r.addr, cl.opts.Node)
				if err != nil {
					cl.bumpProbeBackoff(sh, r)
					continue
				}
				// A user-driven ProbeNow can race the background sweep
				// to this dial: the first client stored is the replica's.
				sh.mu.Lock()
				if r.c == nil {
					r.c = nc
				}
				c = r.c
				sh.mu.Unlock()
				if c != nc {
					_ = nc.Close() // the spare of a lost race, never used
				}
			}
			if _, err := c.Probe(); err != nil {
				cl.bumpProbeBackoff(sh, r)
				continue
			}
			readmits = append(readmits, cand{si, r})
		}
	}
	// Resyncs run after the sweep, outside any probe bookkeeping: each
	// takes the op barrier's write lock for its final settle.
	for _, cd := range readmits {
		if err := cl.readmit(cd.si, cd.r); err != nil {
			cl.bumpProbeBackoff(cl.shards[cd.si], cd.r)
		}
	}
}

// bumpProbeBackoff doubles a down replica's re-probe delay up to the
// configured cap.
func (cl *Cluster) bumpProbeBackoff(sh *shard, r *replica) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.probeBackoff <= 0 {
		r.probeBackoff = cl.opts.ProbeInterval
	} else {
		r.probeBackoff *= 2
	}
	if r.probeBackoff > cl.opts.ProbeBackoffMax {
		r.probeBackoff = cl.opts.ProbeBackoffMax
	}
	r.nextProbe = time.Now().Add(r.probeBackoff) //magevet:ok probe-backoff schedule on a real network client
}

// readmit brings a down-but-answering replica r of shard si back:
// register any regions it is missing, bulk-copy every page its shard
// owns from a surviving peer, settle writes that raced the copy, and
// flip it healthy under the drained op barrier.
func (cl *Cluster) readmit(si int, r *replica) error {
	sh := cl.shards[si]
	cl.topoMu.RLock()
	// Open the dirty log first, atomically with claiming the resync: a
	// user-driven ProbeNow can race the background prober's sweep, and
	// two overlapping resyncs of one replica would clobber each other's
	// dirty log. Opening it this early only means a few extra logged
	// keys, which the settle passes re-copy harmlessly.
	sh.mu.Lock()
	if r.resyncing || r.healthy {
		sh.mu.Unlock()
		cl.topoMu.RUnlock()
		return nil
	}
	r.resyncing = true
	r.dirty = make(map[uint64]struct{})
	t := rung{r: r, c: r.c}
	sh.mu.Unlock()
	sh.resyncCount.Add(1)
	abort := func(err error) error {
		closeResync(sh, r)
		cl.topoMu.RUnlock()
		return err
	}
	// Register missing regions first (the node may have restarted and
	// lost everything it knew).
	regs := cl.snapshotRegions()
	var most int64
	for _, reg := range regs { //magevet:ok registrations are independent; order cannot affect the result
		if err := cl.registerOn(reg, t); err != nil {
			return abort(err)
		}
		most = max(most, cl.pagesOf(reg))
	}
	// Bulk copy: every page this shard owns, batched.
	m := cl.newMover(si, t, most)
	for handle, reg := range regs { //magevet:ok regions copy independently; order cannot affect the result
		for p, n := int64(0), cl.pagesOf(reg); p < n; p++ {
			if placement.ShardOfIDs(placement.Key(handle, uint64(p)), cl.ids) != si {
				continue
			}
			if err := m.add(handle, reg, p); err != nil {
				return abort(err)
			}
		}
	}
	if err := m.drain(); err != nil {
		return abort(err)
	}
	// Settle rounds: re-copy pages written during the bulk copy. Each
	// round shrinks the window; the final round runs under the op
	// barrier's write lock with all ops drained, so nothing can race it.
	for round := 0; ; round++ {
		final := round >= 3
		if final {
			cl.topoMu.RUnlock()
			cl.topoMu.Lock()
		}
		dirty := swapDirty(sh, r)
		if len(dirty) == 0 && !final {
			round = 2 // nothing raced this round; jump to the final pass
			continue
		}
		err := cl.copyDirty(si, t, dirty)
		if !final {
			if err != nil {
				return abort(err)
			}
			continue
		}
		// Final pass, ops drained. Flip healthy under the same lock.
		if err != nil {
			closeResync(sh, r)
			cl.topoMu.Unlock()
			return err
		}
		cl.admitReplica(sh, r)
		cl.topoMu.Unlock()
		return nil
	}
}

// closeResync clears the resync-in-progress state on r, leaving it
// down; a later probe may start the resync over from scratch.
func closeResync(sh *shard, r *replica) {
	sh.mu.Lock()
	r.resyncing = false
	r.dirty = nil
	sh.mu.Unlock()
	sh.resyncCount.Add(-1)
}

// swapDirty takes the current dirty-page log, installing a fresh one
// so writes racing the copy of the taken set keep being recorded.
func swapDirty(sh *shard, r *replica) map[uint64]struct{} {
	sh.mu.Lock()
	dirty := r.dirty
	r.dirty = make(map[uint64]struct{})
	sh.mu.Unlock()
	return dirty
}

// admitReplica flips a fully-resynced replica healthy and rolls its
// degraded time into the counters. Caller holds the op barrier's write
// lock with all ops drained, so the flip cannot race a missed write.
func (cl *Cluster) admitReplica(sh *shard, r *replica) {
	sh.mu.Lock()
	r.resyncing = false
	r.dirty = nil
	r.healthy = true
	r.probeBackoff = 0
	r.nextProbe = time.Time{}
	if !r.downSince.IsZero() {
		r.degradedNs += time.Since(r.downSince).Nanoseconds() //magevet:ok degraded-time accounting on a real network client
		r.downSince = time.Time{}
	}
	r.resyncs++
	sh.mu.Unlock()
	sh.resyncCount.Add(-1)
	cl.stats.readmissions.Add(1)
}

// registerOn gives the replica of rung t a handle for reg unless it has
// one.
func (cl *Cluster) registerOn(reg *cregion, t rung) error {
	if _, ok := reg.handle(t.r); ok {
		return nil
	}
	h, err := t.c.Register(reg.size)
	if err != nil {
		return err
	}
	cl.regMu.Lock()
	reg.setHandle(t.r, h)
	cl.regMu.Unlock()
	return nil
}

// copyDirty re-copies the pages in one settle round's dirty set.
// Dirty keys resolve against the live region table, not the bulk
// copy's snapshot: a write to a region registered after the resync
// began goes only to healthy replicas, so skipping its key here would
// leave the target serving zero-filled pages after admission.
func (cl *Cluster) copyDirty(si int, t rung, dirty map[uint64]struct{}) error {
	m := cl.newMover(si, t, int64(len(dirty)))
	for key := range dirty { //magevet:ok settle-pass copy set: each page is copied exactly once; order cannot matter
		handle, page := splitKey(key)
		cl.regMu.Lock()
		reg := cl.regions[handle]
		cl.regMu.Unlock()
		if reg == nil {
			// No live region for the key. Cannot happen today: memnode has
			// an UNREGISTER verb (Register's rollback uses it), but the
			// cluster has no Unregister, so its region table only grows.
			// A missing entry would mean there is no page to copy.
			continue
		}
		// The region may have appeared after readmit's own register pass
		// with its Register failing to reach this replica: create it on
		// the target now so the dirty copy can land.
		if err := cl.registerOn(reg, t); err != nil {
			return err
		}
		if err := m.add(handle, reg, page); err != nil {
			return err
		}
	}
	return m.drain()
}

// snapshotRegions copies the region table out from under regMu.
func (cl *Cluster) snapshotRegions() map[uint64]*cregion {
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	regs := make(map[uint64]*cregion, len(cl.regions))
	for h, reg := range cl.regions { //magevet:ok snapshot clone of the region table; order cannot affect the result
		regs[h] = reg
	}
	return regs
}

// pagesOf counts reg's ownership pages; the last may be partial.
func (cl *Cluster) pagesOf(reg *cregion) int64 {
	return (reg.size + cl.opts.PageBytes - 1) / cl.opts.PageBytes
}

// splitKey undoes placement.Key.
func splitKey(key uint64) (handle uint64, page int64) {
	return key >> placement.KeyPageBits, int64(key & (1<<placement.KeyPageBits - 1))
}

// batch is the pages of one region the mover has queued: offsets and
// where each will land in the mover's buffer. It holds no data until it
// is flushed.
type batch struct {
	reg  *cregion
	offs []int64
	bufs [][]byte
}

// mover is the one page-copy routine, a resync's: it copies pages of
// shard si from its current replicas to the resync target t, which no
// ladder reaches while it is down. It queues page numbers per region and
// moves a region's batch — one READV, one WRITEV — when the batch fills
// the copy buffer and at drain; the bulk copy and the settle passes
// differ only in the pages they add. The regions share the buffer:
// flushes run one at a time and a queued batch is only offsets. A
// region's partial last page is a shorter descriptor, not a path of its
// own.
type mover struct {
	cl      *Cluster
	si      int
	t       rung
	buf     []byte
	regions map[uint64]*batch // by cluster handle
}

// newMover sizes the copy buffer for the pages expected, at most one
// node op's worth (MaxBatchPages pages or MaxIO bytes).
func (cl *Cluster) newMover(si int, t rung, pages int64) *mover {
	n := max(1, min(pages, memnode.MaxBatchPages, memnode.MaxIO/cl.opts.PageBytes))
	return &mover{cl: cl, si: si, t: t, buf: make([]byte, n*cl.opts.PageBytes), regions: make(map[uint64]*batch)}
}

// add queues one page of reg; a page number past the region's end (a
// dirty key can be anything) is no page.
func (m *mover) add(handle uint64, reg *cregion, page int64) error {
	if page >= m.cl.pagesOf(reg) {
		return nil
	}
	b := m.regions[handle]
	if b == nil {
		b = &batch{reg: reg}
		m.regions[handle] = b
	}
	pb := m.cl.opts.PageBytes
	off, lo := page*pb, int64(len(b.offs))*pb
	n := min(pb, reg.size-off)
	b.offs = append(b.offs, off)
	b.bufs = append(b.bufs, m.buf[lo:lo+n:lo+n])
	if lo+pb == int64(len(m.buf)) {
		return m.flush(b)
	}
	return nil
}

// flush is the only place pages are read from one place and written to
// another: read from the shard's current replicas, the target left out
// (a copy source must be current, not merely alive), and written to the
// target alone.
func (m *mover) flush(b *batch) error {
	if len(b.offs) == 0 {
		return nil
	}
	sh := m.cl.shards[m.si]
	if err := m.cl.readInto(sh, m.si, holders(sh, b.reg, m.t.r), b.offs, b.bufs); err != nil {
		return err
	}
	th, ok := b.reg.handle(m.t.r)
	if !ok {
		return errors.New("memcluster: resync target lost its region handle")
	}
	if err := m.t.c.WriteV(th, b.offs, b.bufs); err != nil {
		return err
	}
	m.cl.stats.resyncedPages.Add(uint64(len(b.offs)))
	b.offs, b.bufs = b.offs[:0], b.bufs[:0]
	return nil
}

// drain flushes what every region still holds.
func (m *mover) drain() error {
	for _, b := range m.regions { //magevet:ok regions hold disjoint page sets; copy order cannot matter
		if err := m.flush(b); err != nil {
			return err
		}
	}
	return nil
}
