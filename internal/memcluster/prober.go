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
// and the final settle pass runs under the cluster's topology write
// lock, which drains all in-flight ops. Every write therefore either
// lands before the bulk copy reads the page, or is in the dirty log
// when the final pass copies it — a missed write is impossible. That
// includes regions registered after the resync began: their writes are
// dirty-logged like any other, and the settle passes resolve dirty
// keys against the live region table (registering the region on the
// target if its own Register attempt missed it), never against the
// bulk copy's snapshot. Unwritten pages of such regions are zero on
// every replica, so the dirty set is exactly what needs copying.
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
	cl.topoMu.RLock()
	topo := cl.topo
	cl.topoMu.RUnlock()
	type cand struct {
		sh *shard
		r  *replica
	}
	var readmits []cand
	for _, sh := range topo.shards {
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
				sh.mu.Lock()
				r.c = nc
				c = nc
				sh.mu.Unlock()
			}
			if _, err := c.Probe(); err != nil {
				cl.bumpProbeBackoff(sh, r)
				continue
			}
			readmits = append(readmits, cand{sh, r})
		}
	}
	// Resyncs run after the sweep, outside any probe bookkeeping: each
	// takes the topology write lock for its final settle.
	for _, cd := range readmits {
		if err := cl.readmit(cd.sh, cd.r); err != nil {
			cl.bumpProbeBackoff(cd.sh, cd.r)
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

// resyncBatchPages bounds one resync copy batch: MaxBatchPages or
// whatever number of full pages fits MaxIO, whichever is smaller.
func (cl *Cluster) resyncBatchPages() int {
	n := int(int64(memnode.MaxIO) / cl.opts.PageBytes)
	if n > memnode.MaxBatchPages {
		n = memnode.MaxBatchPages
	}
	if n < 1 {
		n = 1
	}
	return n
}

// readmit brings a down-but-answering replica back: register any
// regions it is missing, bulk-copy every page its shard owns from a
// surviving peer, settle writes that raced the copy, and flip it
// healthy under the drained topology lock.
func (cl *Cluster) readmit(sh *shard, r *replica) error {
	cl.topoMu.RLock()
	topo := cl.topo
	si := -1
	for i, s := range topo.shards {
		if s == sh {
			si = i
			break
		}
	}
	if si == -1 {
		// The shard left the topology while the replica was down.
		cl.topoMu.RUnlock()
		return nil
	}
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
	sh.mu.Unlock()
	sh.resyncCount.Add(1)
	abort := func(err error) error {
		closeResync(sh, r)
		cl.topoMu.RUnlock()
		return err
	}
	// Register missing regions first (the node may have restarted and
	// lost everything it knew).
	cl.regMu.Lock()
	regs := make(map[uint64]*cregion, len(cl.regions))
	for h, reg := range cl.regions { //magevet:ok snapshot clone of the region table; order cannot affect the result
		regs[h] = reg
	}
	cl.regMu.Unlock()
	for _, reg := range regs { //magevet:ok registrations are independent; order cannot affect the result
		if _, ok := reg.handle(r); ok {
			continue
		}
		h, err := r.c.Register(reg.size)
		if err != nil {
			return abort(err)
		}
		cl.regMu.Lock()
		reg.setHandle(r, h)
		cl.regMu.Unlock()
	}
	// Bulk copy: every page this shard owns, batched.
	for handle, reg := range regs { //magevet:ok regions copy independently; order cannot affect the result
		if err := cl.copyOwnedPages(topo, si, sh, r, handle, reg); err != nil {
			return abort(err)
		}
	}
	// Settle rounds: re-copy pages written during the bulk copy. Each
	// round shrinks the window; the final round runs under the topology
	// write lock with all ops drained, so nothing can race it.
	for round := 0; ; round++ {
		final := round >= 3
		if final {
			cl.topoMu.RUnlock()
			cl.topoMu.Lock()
			if cl.topo != topo {
				// Topology changed while we waited for the write lock; the
				// new topology may not own the same pages. Stay down and let
				// the next probe restart the resync from scratch.
				cl.topoMu.Unlock()
				closeResync(sh, r)
				return nil
			}
		}
		dirty := swapDirty(sh, r)
		if len(dirty) == 0 && !final {
			round = 2 // nothing raced this round; jump to the final pass
			continue
		}
		err := cl.copyDirty(si, sh, r, dirty)
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
// degraded time into the counters. Caller holds the topology write
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

// copyOwnedPages bulk-copies every page of region handle owned by
// shard si from a surviving replica to the resync target r.
func (cl *Cluster) copyOwnedPages(topo *topology, si int, sh *shard, r *replica, handle uint64, reg *cregion) error {
	pb := cl.opts.PageBytes
	npages := (reg.size + pb - 1) / pb
	batchMax := cl.resyncBatchPages()
	offs := make([]int64, 0, batchMax)
	bufs := cl.copyBuffers(npages) // every batch of this region lands in the same pages
	for p := int64(0); p < npages; p++ {
		key := placement.Key(handle, uint64(p))
		if placement.ShardOfIDs(key, topo.ids) != si {
			continue
		}
		if (p+1)*pb > reg.size {
			// Tail partial page: copy individually.
			if err := cl.copyPage(sh, si, r, reg, p*pb, reg.size-p*pb); err != nil {
				return err
			}
			continue
		}
		offs = append(offs, p*pb)
		if len(offs) == batchMax {
			if err := cl.copyBatch(sh, si, r, reg, offs, bufs); err != nil {
				return err
			}
			offs = offs[:0]
		}
	}
	if len(offs) > 0 {
		return cl.copyBatch(sh, si, r, reg, offs, bufs)
	}
	return nil
}

// copyBuffers returns the destination pages a copy loop over a region
// of npages reuses for every batch it reads: one allocation of at most
// a full batch.
func (cl *Cluster) copyBuffers(npages int64) [][]byte {
	n := min(npages, int64(cl.resyncBatchPages()))
	return memnode.SplitPages(make([]byte, n*cl.opts.PageBytes), cl.opts.PageBytes)
}

// copyBatch moves one READV-worth of full pages from a surviving peer
// to the resync target, through the first len(offs) of bufs.
func (cl *Cluster) copyBatch(sh *shard, si int, target *replica, reg *cregion, offs []int64, bufs [][]byte) error {
	bufs = bufs[:len(offs)]
	if err := cl.readVShardExcluding(reg, sh, si, target, offs, bufs); err != nil {
		return err
	}
	th, ok := reg.handle(target)
	if !ok {
		return errAllReplicasFailed(si, errors.New("resync target lost its region handle"))
	}
	if err := target.c.WriteV(th, offs, bufs); err != nil {
		return err
	}
	cl.stats.rebalancedPages.Add(uint64(len(offs)))
	return nil
}

// copyPage moves one (possibly partial) page from a surviving peer to
// the resync target.
func (cl *Cluster) copyPage(sh *shard, si int, target *replica, reg *cregion, off, length int64) error {
	body, err := cl.readOneExcluding(reg, sh, si, target, off, length)
	if err != nil {
		return err
	}
	th, ok := reg.handle(target)
	if !ok {
		memnode.PutBuf(body)
		return errAllReplicasFailed(si, errors.New("resync target lost its region handle"))
	}
	err = target.c.Write(th, off, body)
	memnode.PutBuf(body)
	if err != nil {
		return err
	}
	cl.stats.rebalancedPages.Add(1)
	return nil
}

// copyDirty re-copies the pages in one settle round's dirty set.
// Dirty keys resolve against the live region table, not the bulk
// copy's snapshot: a write to a region registered after the resync
// began goes only to healthy replicas, so skipping its key here would
// leave the target serving zero-filled pages after admission.
func (cl *Cluster) copyDirty(si int, sh *shard, r *replica, dirty map[uint64]struct{}) error {
	pb := cl.opts.PageBytes
	for key := range dirty { //magevet:ok settle-pass copy set: each page is copied exactly once; order cannot matter
		handle := key >> placement.KeyPageBits
		pageNo := int64(key & (1<<placement.KeyPageBits - 1))
		cl.regMu.Lock()
		reg := cl.regions[handle]
		cl.regMu.Unlock()
		if reg == nil {
			// No live region for the key (cannot happen today — there is
			// no unregister verb — but a missing entry means there is no
			// page to copy).
			continue
		}
		if _, ok := reg.handle(r); !ok {
			// The region appeared after readmit's own register pass, and
			// the concurrent Register failed to reach this replica.
			// Create it on the target now so the dirty copy can land.
			h, err := r.c.Register(reg.size)
			if err != nil {
				return err
			}
			cl.regMu.Lock()
			reg.setHandle(r, h)
			cl.regMu.Unlock()
		}
		off := pageNo * pb
		length := pb
		if off > reg.size-length { // overflow-safe form of off+length > reg.size
			length = reg.size - off
		}
		if length <= 0 {
			continue
		}
		if err := cl.copyPage(sh, si, r, reg, off, length); err != nil {
			return err
		}
	}
	return nil
}

// readVShardExcluding is readVShard with one replica (the resync
// target — its data is the stale data being replaced) removed from
// the source set. A resync source must be current, not merely alive,
// so there is no degraded tail here.
func (cl *Cluster) readVShardExcluding(reg *cregion, sh *shard, shardIdx int, exclude *replica, offs []int64, dst [][]byte) error {
	reps, _, healthy := snapshotReplicas(sh)
	var lastErr error
	for i, r := range reps {
		if r == exclude || !healthy[i] {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		err := r.c.ReadVInto(h, offs, dst)
		if err == nil {
			return nil
		}
		if memnode.IsTerminal(err) {
			return err
		}
		cl.markDown(sh, r, true)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy resync source")
	}
	return errAllReplicasFailed(shardIdx, lastErr)
}

// readOneExcluding mirrors readOne minus the excluded replica and the
// degraded tail.
func (cl *Cluster) readOneExcluding(reg *cregion, sh *shard, shardIdx int, exclude *replica, off, length int64) ([]byte, error) {
	reps, _, healthy := snapshotReplicas(sh)
	var lastErr error
	for i, r := range reps {
		if r == exclude || !healthy[i] {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		body, err := r.c.Read(h, off, length)
		if err == nil {
			return body, nil
		}
		if memnode.IsTerminal(err) {
			return nil, err
		}
		cl.markDown(sh, r, true)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy resync source")
	}
	return nil, errAllReplicasFailed(shardIdx, lastErr)
}
