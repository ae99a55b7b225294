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
//
// Every page a migration or a resync copies goes through one mover.
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

// lane names the shards a page travels between under this migration,
// and whether it travels at all: ownership is compared by stable ID —
// a leave shifts the indices of the shards behind the one that left.
func (m *migration) lane(handle uint64, page int64) (lane, bool) {
	key := placement.Key(handle, uint64(page))
	so, sn := placement.ShardOfIDs(key, m.oldIDs), placement.ShardOfIDs(key, m.newIDs)
	return lane{handle, so, sn}, m.oldIDs[so] != m.newIDs[sn]
}

// beginMigration installs the migration record; the write path starts
// logging moved-key dirt the moment migOn flips.
func (cl *Cluster) beginMigration(oldIDs, newIDs []uint64) (*migration, error) {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	if cl.mig != nil {
		return nil, errors.New("memcluster: a rebalance is already running")
	}
	cl.mig = &migration{oldIDs: oldIDs, newIDs: newIDs, dirty: make(map[uint64]struct{})}
	cl.migOn.Store(true)
	return cl.mig, nil
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
	err := cl.migrate(newSh, func(old *topology) (*topology, error) {
		newSh.id = cl.nextID
		cl.nextID++
		return &topology{
			shards: append(append([]*shard(nil), old.shards...), newSh),
			ids:    append(append([]uint64(nil), old.ids...), newSh.id),
		}, nil
	})
	if err != nil {
		_ = closeShard(newSh)
	}
	return err
}

// RemoveShard drains shard idx out of the cluster: its pages migrate
// to their new rendezvous owners, the topology shrinks, and the
// removed shard's clients close. The last shard cannot be removed.
func (cl *Cluster) RemoveShard(idx int) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	var removed *shard
	err := cl.migrate(nil, func(old *topology) (*topology, error) {
		if idx < 0 || idx >= len(old.shards) {
			return nil, fmt.Errorf("memcluster: RemoveShard: no shard %d", idx)
		}
		if len(old.shards) == 1 {
			return nil, errors.New("memcluster: cannot remove the last shard")
		}
		removed = old.shards[idx]
		next := &topology{}
		for i, sh := range old.shards {
			if i != idx {
				next.shards = append(next.shards, sh)
				next.ids = append(next.ids, old.ids[i])
			}
		}
		return next, nil
	})
	if err != nil {
		return err
	}
	return closeShard(removed)
}

// migrate is the one topology change. next builds the candidate from
// the current topology under the write lock (which also guards nextID);
// the pages whose owner differs between the two are then bulk-copied
// while ops keep flowing against the old one, and the final settle —
// regions created mid-copy, writes that raced it — and the swap run
// under the drained barrier. Every region is first registered on the
// replicas of joining, the shard a join adds (nil for a leave).
//
// cl.topo cannot change underneath: beginMigration admits one migration
// at a time and nothing else stores it.
func (cl *Cluster) migrate(joining *shard, next func(old *topology) (*topology, error)) error {
	cl.topoMu.Lock()
	oldTopo := cl.topo
	newTopo, err := next(oldTopo)
	var mig *migration
	if err == nil {
		mig, err = cl.beginMigration(oldTopo.ids, newTopo.ids)
	}
	cl.topoMu.Unlock()
	if err != nil {
		return err
	}
	bulk := func(regs, done map[uint64]*cregion) error {
		var most int64
		for handle, reg := range regs { //magevet:ok registrations are independent; order cannot affect the result
			if done[handle] != nil {
				continue
			}
			if joining != nil {
				// Joining replicas are freshly dialled and healthy: every one
				// must accept, or the join aborts.
				for _, g := range dialled(joining) {
					if err := cl.registerOn(reg, g); err != nil {
						return err
					}
				}
			}
			most = max(most, cl.pagesOf(reg))
		}
		m := cl.rebalanceMover(oldTopo, newTopo, most)
		for handle, reg := range regs { //magevet:ok regions copy independently; order cannot affect the result
			if done[handle] != nil {
				continue
			}
			for p, n := int64(0), cl.pagesOf(reg); p < n; p++ {
				if l, ok := mig.lane(handle, p); ok {
					if err := m.add(l, reg, p); err != nil {
						return err
					}
				}
			}
		}
		return m.drain()
	}
	cl.topoMu.RLock()
	regs := cl.snapshotRegions()
	err = bulk(regs, nil)
	cl.topoMu.RUnlock()
	if err != nil {
		cl.endMigration()
		return err
	}
	cl.topoMu.Lock()
	defer cl.topoMu.Unlock()
	late := cl.snapshotRegions()
	err = bulk(late, regs)
	dirty := cl.endMigration()
	if err != nil {
		return err
	}
	m := cl.rebalanceMover(oldTopo, newTopo, int64(len(dirty)))
	for key := range dirty { //magevet:ok settle-pass copy set: each page is copied exactly once; order cannot matter
		handle, page := splitKey(key)
		reg := late[handle]
		if l, ok := mig.lane(handle, page); ok && reg != nil {
			if err := m.add(l, reg, page); err != nil {
				return err
			}
		}
	}
	if err := m.drain(); err != nil {
		return err
	}
	cl.topo = newTopo
	return nil
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

// rebalanceMover copies pages from their owner under oldTopo, read as
// any op reads them, to every healthy replica of their owner under
// newTopo.
func (cl *Cluster) rebalanceMover(oldTopo, newTopo *topology, pages int64) *mover {
	return cl.newMover(pages,
		func(l lane, reg *cregion, offs []int64, bufs [][]byte) error {
			sh := oldTopo.shards[l.src]
			key := placement.Key(l.handle, uint64(offs[0]/cl.opts.PageBytes))
			return cl.readInto(sh, l.src, cl.ladder(nil, sh, reg, key), offs, bufs)
		},
		func(l lane, reg *cregion, offs []int64, bufs [][]byte) error {
			sh := newTopo.shards[l.dst]
			return cl.writeTo(sh, l.dst, holders(sh, reg, nil), l.handle, offs, bufs, false)
		})
}

// lane is one stream of a copy: the pages of one region that travel
// from shard src to shard dst (indices into the topology each side is
// read under; equal for a resync, which stays inside one shard).
type lane struct {
	handle   uint64
	src, dst int
}

// batch is the pages a lane has queued: offsets and where each will
// land in the mover's buffer. It holds no data until it is flushed.
type batch struct {
	reg  *cregion
	offs []int64
	bufs [][]byte
}

// mover is the one page-copy routine. It queues page numbers per lane
// and moves a lane's batch — one read, one write, both batched verbs —
// when the batch fills the copy buffer and at drain. Resync and
// rebalance, bulk and settle, differ only in the read and write they
// hand it. The lanes share the buffer: flushes run one at a time and a
// queued batch is only offsets. A region's partial last page is a
// shorter descriptor, not a path of its own.
type mover struct {
	cl          *Cluster
	buf         []byte
	lanes       map[lane]*batch
	read, write func(l lane, reg *cregion, offs []int64, bufs [][]byte) error
}

// newMover sizes the copy buffer for the pages expected, at most one
// node op's worth (MaxBatchPages pages or MaxIO bytes).
func (cl *Cluster) newMover(pages int64, read, write func(lane, *cregion, []int64, [][]byte) error) *mover {
	n := max(1, min(pages, memnode.MaxBatchPages, memnode.MaxIO/cl.opts.PageBytes))
	return &mover{cl: cl, buf: make([]byte, n*cl.opts.PageBytes), lanes: make(map[lane]*batch), read: read, write: write}
}

// add queues one page of reg on lane l; a page number past the region's
// end (a dirty key can be anything) is no page.
func (m *mover) add(l lane, reg *cregion, page int64) error {
	if page >= m.cl.pagesOf(reg) {
		return nil
	}
	b := m.lanes[l]
	if b == nil {
		b = &batch{reg: reg}
		m.lanes[l] = b
	}
	pb := m.cl.opts.PageBytes
	off, lo := page*pb, int64(len(b.offs))*pb
	n := min(pb, reg.size-off)
	b.offs = append(b.offs, off)
	b.bufs = append(b.bufs, m.buf[lo:lo+n:lo+n])
	if lo+pb == int64(len(m.buf)) {
		return m.flush(l, b)
	}
	return nil
}

// flush is the only place pages are read from one place and written to
// another.
func (m *mover) flush(l lane, b *batch) error {
	if len(b.offs) == 0 {
		return nil
	}
	if err := m.read(l, b.reg, b.offs, b.bufs); err != nil {
		return err
	}
	if err := m.write(l, b.reg, b.offs, b.bufs); err != nil {
		return err
	}
	m.cl.stats.rebalancedPages.Add(uint64(len(b.offs)))
	b.offs, b.bufs = b.offs[:0], b.bufs[:0]
	return nil
}

// drain flushes what every lane still holds.
func (m *mover) drain() error {
	for l, b := range m.lanes { //magevet:ok lanes hold disjoint page sets; copy order cannot matter
		if err := m.flush(l, b); err != nil {
			return err
		}
	}
	return nil
}
