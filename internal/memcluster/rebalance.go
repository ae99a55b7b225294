// Shard join/leave with bounded, deterministic rebalancing.
//
// Rendezvous hashing over stable shard IDs means a topology change
// moves exactly the keys whose winning ID changed: adding a shard
// moves only the keys the newcomer wins (about 1/(N+1) of them), and
// removing one moves only the keys it owned. AddShard/RemoveShard
// iterate that moved set, batch-copy it with READV/WRITEV, and swap
// in the new topology under the cluster's op/topology barrier.
//
// Writes racing the copy are caught the same way resync catches them:
// logDirty records every completed write whose key changes owner
// between the old and new ID sets, and the final settle pass re-copies
// that set under the topology write lock with all ops drained.
package memcluster

import (
	"errors"
	"fmt"

	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// migration is one live topology change: the old and new stable-ID
// sets (what logDirty compares) and the keys written mid-copy whose
// owner changes between them.
type migration struct {
	oldIDs []uint64
	newIDs []uint64
	dirty  map[uint64]struct{}
}

// beginMigration installs the migration record; the write path starts
// logging moved-key dirt the moment migOn flips.
func (cl *Cluster) beginMigration(oldIDs, newIDs []uint64) error {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	if cl.mig != nil {
		return errors.New("memcluster: a rebalance is already running")
	}
	cl.mig = &migration{oldIDs: oldIDs, newIDs: newIDs, dirty: make(map[uint64]struct{})}
	cl.migOn.Store(true)
	return nil
}

// endMigration clears the record and returns the accumulated dirty
// set. Caller holds topoMu exclusively when draining for the final
// settle.
func (cl *Cluster) endMigration() map[uint64]struct{} {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	m := cl.mig
	cl.mig = nil
	cl.migOn.Store(false)
	if m == nil {
		return nil
	}
	return m.dirty
}

// AddShard grows the cluster by one shard served by addrs, migrating
// the pages the new shard wins under rendezvous hashing. Every new
// replica must be reachable — a join starts whole or not at all.
// Reads and writes keep flowing during the copy; the topology swap
// waits for in-flight ops and costs one brief write-lock pause.
func (cl *Cluster) AddShard(addrs []string) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	if len(addrs) == 0 {
		return errors.New("memcluster: AddShard needs at least one replica address")
	}
	newSh := &shard{}
	for _, addr := range addrs {
		c, err := memnode.DialOptions(addr, cl.opts.Node)
		if err != nil {
			_ = closeShard(newSh)
			return fmt.Errorf("memcluster: AddShard: dial %s: %w", addr, err)
		}
		newSh.replicas = append(newSh.replicas, &replica{addr: addr, c: c, healthy: true})
	}
	// Allocate the stable ID and build the candidate topology under the
	// write lock (nextID is barrier-guarded), then release: the copy
	// runs against the still-current old topology.
	cl.topoMu.Lock()
	oldTopo := cl.topo
	newSh.id = cl.nextID
	cl.nextID++
	newTopo := &topology{
		shards: append(append([]*shard(nil), oldTopo.shards...), newSh),
		ids:    append(append([]uint64(nil), oldTopo.ids...), newSh.id),
	}
	if err := cl.beginMigration(oldTopo.ids, newTopo.ids); err != nil {
		cl.topoMu.Unlock()
		_ = closeShard(newSh)
		return err
	}
	cl.topoMu.Unlock()

	abort := func(err error) error {
		cl.endMigration()
		_ = closeShard(newSh)
		return err
	}
	// Register every existing region on the new replicas and bulk-copy
	// the moved pages while ops keep flowing under the read lock.
	cl.topoMu.RLock()
	if cl.topo != oldTopo {
		cl.topoMu.RUnlock()
		return abort(errors.New("memcluster: topology changed during AddShard"))
	}
	regs := cl.snapshotRegions()
	for _, reg := range regs { //magevet:ok registrations are independent; order cannot affect the result
		if err := cl.registerOnShard(reg, newSh); err != nil {
			cl.topoMu.RUnlock()
			return abort(err)
		}
	}
	for handle, reg := range regs { //magevet:ok regions copy independently; order cannot affect the result
		if err := cl.copyMovedPages(oldTopo, newTopo, handle, reg); err != nil {
			cl.topoMu.RUnlock()
			return abort(err)
		}
	}
	cl.topoMu.RUnlock()
	// Final settle under the drained barrier: register regions created
	// mid-copy, re-copy raced writes, swap the topology.
	cl.topoMu.Lock()
	if cl.topo != oldTopo {
		cl.topoMu.Unlock()
		return abort(errors.New("memcluster: topology changed during AddShard"))
	}
	lateRegs := cl.snapshotRegions()
	for handle, reg := range lateRegs { //magevet:ok registrations are independent; order cannot affect the result
		if _, ok := regs[handle]; ok {
			continue
		}
		if err := cl.registerOnShard(reg, newSh); err != nil {
			cl.topoMu.Unlock()
			return abort(err)
		}
		if err := cl.copyMovedPages(oldTopo, newTopo, handle, reg); err != nil {
			cl.topoMu.Unlock()
			return abort(err)
		}
	}
	dirty := cl.endMigration()
	if err := cl.settleMoved(oldTopo, newTopo, lateRegs, dirty); err != nil {
		cl.topoMu.Unlock()
		_ = closeShard(newSh)
		return err
	}
	cl.topo = newTopo
	cl.topoMu.Unlock()
	return nil
}

// RemoveShard drains shard idx out of the cluster: its pages migrate
// to their new rendezvous owners, the topology shrinks, and the
// removed shard's clients close. The last shard cannot be removed.
func (cl *Cluster) RemoveShard(idx int) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	cl.topoMu.Lock()
	oldTopo := cl.topo
	if idx < 0 || idx >= len(oldTopo.shards) {
		cl.topoMu.Unlock()
		return fmt.Errorf("memcluster: RemoveShard: no shard %d", idx)
	}
	if len(oldTopo.shards) == 1 {
		cl.topoMu.Unlock()
		return errors.New("memcluster: cannot remove the last shard")
	}
	removed := oldTopo.shards[idx]
	newTopo := &topology{}
	for i, sh := range oldTopo.shards {
		if i == idx {
			continue
		}
		newTopo.shards = append(newTopo.shards, sh)
		newTopo.ids = append(newTopo.ids, oldTopo.ids[i])
	}
	if err := cl.beginMigration(oldTopo.ids, newTopo.ids); err != nil {
		cl.topoMu.Unlock()
		return err
	}
	cl.topoMu.Unlock()

	abort := func(err error) error {
		cl.endMigration()
		return err
	}
	cl.topoMu.RLock()
	if cl.topo != oldTopo {
		cl.topoMu.RUnlock()
		return abort(errors.New("memcluster: topology changed during RemoveShard"))
	}
	regs := cl.snapshotRegions()
	for handle, reg := range regs { //magevet:ok regions copy independently; order cannot affect the result
		if err := cl.copyMovedPages(oldTopo, newTopo, handle, reg); err != nil {
			cl.topoMu.RUnlock()
			return abort(err)
		}
	}
	cl.topoMu.RUnlock()
	cl.topoMu.Lock()
	if cl.topo != oldTopo {
		cl.topoMu.Unlock()
		return abort(errors.New("memcluster: topology changed during RemoveShard"))
	}
	lateRegs := cl.snapshotRegions()
	for handle, reg := range lateRegs { //magevet:ok regions copy independently; order cannot affect the result
		if _, ok := regs[handle]; ok {
			continue
		}
		if err := cl.copyMovedPages(oldTopo, newTopo, handle, reg); err != nil {
			cl.topoMu.Unlock()
			return abort(err)
		}
	}
	dirty := cl.endMigration()
	if err := cl.settleMoved(oldTopo, newTopo, lateRegs, dirty); err != nil {
		cl.topoMu.Unlock()
		return err
	}
	cl.topo = newTopo
	cl.topoMu.Unlock()
	return closeShard(removed)
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

// registerOnShard registers reg on every replica of sh that lacks a
// handle. Every replica must accept — joining replicas are freshly
// dialed and healthy, so failure here means the join should abort.
func (cl *Cluster) registerOnShard(reg *cregion, sh *shard) error {
	sh.mu.Lock()
	reps := append([]*replica(nil), sh.replicas...)
	sh.mu.Unlock()
	for _, r := range reps {
		if _, ok := reg.handle(r); ok {
			continue
		}
		h, err := r.c.Register(reg.size)
		if err != nil {
			return err
		}
		cl.regMu.Lock()
		reg.setHandle(r, h)
		cl.regMu.Unlock()
	}
	return nil
}

// copyMovedPages copies every page of one region whose owner changes
// between oldTopo and newTopo, batching full pages per (source, dest)
// shard pair.
func (cl *Cluster) copyMovedPages(oldTopo, newTopo *topology, handle uint64, reg *cregion) error {
	pb := cl.opts.PageBytes
	npages := (reg.size + pb - 1) / pb
	batchMax := cl.resyncBatchPages()
	type pair struct{ src, dst int }
	batches := make(map[pair][]int64)
	bufs := cl.copyBuffers(npages) // every batch of this region lands in the same pages
	flush := func(pr pair, offs []int64) error {
		bodies := bufs[:len(offs)]
		if err := cl.readVShard(reg, oldTopo.shards[pr.src], pr.src, handle, offs, bodies); err != nil {
			return err
		}
		if err := cl.writeMoved(reg, newTopo.shards[pr.dst], pr.dst, offs, bodies); err != nil {
			return err
		}
		cl.stats.rebalancedPages.Add(uint64(len(offs)))
		return nil
	}
	for p := int64(0); p < npages; p++ {
		key := placement.Key(handle, uint64(p))
		so := placement.ShardOfIDs(key, oldTopo.ids)
		sn := placement.ShardOfIDs(key, newTopo.ids)
		if oldTopo.ids[so] == newTopo.ids[sn] {
			continue
		}
		if (p+1)*pb > reg.size {
			if err := cl.copyMovedPage(oldTopo, newTopo, reg, key, p*pb, reg.size-p*pb); err != nil {
				return err
			}
			continue
		}
		pr := pair{so, sn}
		batches[pr] = append(batches[pr], p*pb) //magevet:ok per-pair batch accumulator; flush resets the slice it consumed
		if len(batches[pr]) == batchMax {
			if err := flush(pr, batches[pr]); err != nil {
				return err
			}
			delete(batches, pr)
		}
	}
	for pr, offs := range batches { //magevet:ok disjoint page sets per shard pair; copy order cannot matter
		if err := flush(pr, offs); err != nil {
			return err
		}
	}
	return nil
}

// copyMovedPage moves a single (possibly partial) page between its
// old and new owner shards.
func (cl *Cluster) copyMovedPage(oldTopo, newTopo *topology, reg *cregion, key uint64, off, length int64) error {
	so := placement.ShardOfIDs(key, oldTopo.ids)
	sn := placement.ShardOfIDs(key, newTopo.ids)
	if so < 0 || sn < 0 || oldTopo.ids[so] == newTopo.ids[sn] {
		return nil
	}
	body, err := cl.readOne(reg, oldTopo.shards[so], so, key, off, length)
	if err != nil {
		return err
	}
	err = cl.writeMoved(reg, newTopo.shards[sn], sn, []int64{off}, [][]byte{body})
	memnode.PutBuf(body)
	if err != nil {
		return err
	}
	cl.stats.rebalancedPages.Add(1)
	return nil
}

// writeMoved replicates one batch of migrated pages to every healthy
// replica of the destination shard. Unlike writeVShard it does NOT
// log dirt: migration copies must not re-mark the very pages they
// just moved, or the settle pass would never converge.
func (cl *Cluster) writeMoved(reg *cregion, sh *shard, shardIdx int, offs []int64, bodies [][]byte) error {
	reps, _, healthy := snapshotReplicas(sh)
	acks := 0
	var lastErr error
	for i, r := range reps {
		if !healthy[i] {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		if err := r.c.WriteV(h, offs, bodies); err != nil {
			if memnode.IsTerminal(err) {
				return err
			}
			cl.markDown(sh, r, true)
			lastErr = err
			continue
		}
		acks++
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = errors.New("no healthy destination replica")
		}
		return errAllReplicasFailed(shardIdx, lastErr)
	}
	return nil
}

// settleMoved re-copies the migration dirty set (keys written during
// the bulk copy whose owner changes). Caller holds topoMu exclusively
// with all ops drained.
func (cl *Cluster) settleMoved(oldTopo, newTopo *topology, regs map[uint64]*cregion, dirty map[uint64]struct{}) error {
	pb := cl.opts.PageBytes
	for key := range dirty { //magevet:ok settle-pass copy set: each page is copied exactly once; order cannot matter
		handle := key >> placement.KeyPageBits
		pageNo := int64(key & (1<<placement.KeyPageBits - 1))
		reg, ok := regs[handle]
		if !ok {
			continue
		}
		off := pageNo * pb
		length := pb
		if off > reg.size-length { // overflow-safe form of off+length > reg.size
			length = reg.size - off
		}
		if length <= 0 {
			continue
		}
		if err := cl.copyMovedPage(oldTopo, newTopo, reg, key, off, length); err != nil {
			return err
		}
	}
	return nil
}
