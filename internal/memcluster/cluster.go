// Package memcluster turns N independent memnodes into one far-memory
// pool with the same client surface as a single memnode.Client:
// REGISTER / READ / WRITE / READV / WRITEV against stable region
// handles. Pages are placed by rendezvous hashing of their
// (region, page) key onto shards (internal/memcluster/placement — the
// same pure policy the DES mirror uses), each shard is served by R
// replicas, and the cluster rides the per-node client's
// idempotent-retry machinery underneath its own failover:
//
//   - Reads pick one replica, memory-weighted by each replica's last
//     STATS sample, and fail over to the next replica when a node
//     NACKs or times out — degrading all the way to "try everything
//     including nodes marked down" before an error surfaces.
//   - Writes replicate to every healthy replica of the owning shard;
//     one surviving replica is enough for the write to succeed.
//   - A background prober samples the STATS verb on a fixed cadence,
//     refreshing selection weights, demoting replicas that stop
//     answering, and re-admitting them — after a full resync — with
//     exponential backoff between re-probes.
//
// Consistency model: a page has one logical writer at a time (the
// same contract the memnode pipeline documents), so replicas converge
// per page. A replica that missed writes while down is never read
// (except in last-resort degradation with every replica down) until
// resync copies its shard's pages back from a surviving peer.
package memcluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"        //magevet:ok memcluster is a real network client layered over TCP/shm memnode clients
	"sync/atomic" //magevet:ok lock-free hot-path gates and robustness counters
	"time"

	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// Options tunes the cluster client.
type Options struct {
	// PageBytes is the placement granularity: byte [off, off+1) of a
	// region belongs to the shard owning page off/PageBytes. Default
	// 4096. Ops and batch descriptors may span pages; the cluster
	// splits them along ownership boundaries.
	PageBytes int64
	// Node configures every per-replica memnode client. The zero value
	// gets cluster-appropriate defaults: short dial/IO timeouts and
	// MaxAttempts 2, so one in-client retry rides out a blip and real
	// node failure surfaces fast enough for cluster-level failover.
	Node memnode.Options
	// ProbeInterval is the health/weight refresh cadence. Default
	// 100ms.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the exponential backoff between re-probes
	// of a down replica (the first re-probe comes after one
	// ProbeInterval). Default 2s.
	ProbeBackoffMax time.Duration
	// DisableProber turns the background prober off; tests drive
	// ProbeNow explicitly to make probe timing deterministic.
	DisableProber bool
}

func (o *Options) fillDefaults() {
	if o.PageBytes <= 0 {
		o.PageBytes = 4096
	}
	if o.Node.DialTimeout <= 0 {
		o.Node.DialTimeout = 500 * time.Millisecond
	}
	if o.Node.IOTimeout <= 0 {
		o.Node.IOTimeout = time.Second
	}
	if o.Node.MaxAttempts <= 0 {
		o.Node.MaxAttempts = 2
	}
	if o.Node.BaseBackoff <= 0 {
		o.Node.BaseBackoff = 10 * time.Millisecond
	}
	if o.Node.MaxBackoff <= 0 {
		o.Node.MaxBackoff = 100 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 100 * time.Millisecond
	}
	if o.ProbeBackoffMax <= 0 {
		o.ProbeBackoffMax = 2 * time.Second
	}
}

// ErrClosed is returned by operations on a closed cluster.
var ErrClosed = errors.New("memcluster: cluster closed")

// errAllReplicasFailed wraps the last per-replica error when a shard
// has no replica able to serve an op.
func errAllReplicasFailed(shard int, last error) error {
	return fmt.Errorf("memcluster: shard %d: all replicas failed: %w", shard, last)
}

// replica is one memnode endpoint of a shard. Health, weights, and
// the resync dirty set are guarded by the owning shard's mu; the
// client pointer is written only under mu but read lock-free after
// snapshot (memnode.Client is internally synchronized).
type replica struct {
	addr string
	c    *memnode.Client // nil until the first successful dial

	healthy   bool
	resyncing bool
	weight    int64 // free bytes from the last STATS sample
	inflight  int64 // in-flight depth from the last STATS sample
	downSince time.Time

	// dirty is the resync write-log: cluster keys written to this
	// shard while this replica resyncs. Nil unless resyncing.
	dirty map[uint64]struct{}

	// Prober state (prober goroutine only).
	nextProbe    time.Time
	probeBackoff time.Duration

	// Per-replica counters (owning shard's mu).
	failovers  uint64
	flaps      uint64
	resyncs    uint64
	degradedNs int64
}

// shard is one replica group. mu also serializes write-completion
// bookkeeping (the dirty log) against resync's settle passes.
type shard struct {
	mu       sync.Mutex
	id       uint64 // stable rendezvous identity
	replicas []*replica
	// resyncCount mirrors how many replicas are mid-resync, so the
	// write hot path can skip the dirty-log lock when (as almost
	// always) nothing is resyncing.
	resyncCount atomic.Int32
}

// topology is an immutable shard list; AddShard/RemoveShard swap in a
// fresh one under the cluster's topology lock.
type topology struct {
	shards []*shard
	ids    []uint64 // parallel to shards
}

// cregion is one cluster-level region: the caller's stable handle
// maps to a per-replica handle on every node that has registered it.
// The handle map is copy-on-write (writers serialize on the cluster's
// regMu; readers load the snapshot lock-free) because resync and
// shard joins add handles while the data path is live.
type cregion struct {
	size    int64
	handles atomic.Value // map[*replica]uint64
}

// handle returns r's node-level handle for this region, if r has
// registered it.
func (reg *cregion) handle(r *replica) (uint64, bool) {
	m, _ := reg.handles.Load().(map[*replica]uint64)
	h, ok := m[r]
	return h, ok
}

// setHandle publishes a new replica handle. Caller holds regMu.
func (reg *cregion) setHandle(r *replica, h uint64) {
	old, _ := reg.handles.Load().(map[*replica]uint64)
	m := make(map[*replica]uint64, len(old)+1)
	for k, v := range old { //magevet:ok copy-on-write map clone; order cannot affect the result
		m[k] = v
	}
	m[r] = h
	reg.handles.Store(m)
}

// Cluster is the sharded, replicated far-memory client.
type Cluster struct {
	opts Options

	// topoMu is the op/topology barrier: every public operation runs
	// under RLock for its full duration, so a writer (topology swap,
	// resync's final settle) that takes Lock knows no op is in flight.
	topoMu sync.RWMutex
	topo   *topology
	nextID uint64 // next stable shard ID

	regMu   sync.Mutex
	regions map[uint64]*cregion
	nextReg uint64

	// mig is the live rebalance, nil when none is running. Guarded by
	// migMu (not topoMu: writes record moved-page dirt while holding
	// only their RLock). migOn mirrors mig != nil so the write hot
	// path can skip migMu when no rebalance runs.
	migMu sync.Mutex
	mig   *migration
	migOn atomic.Bool

	closed   chan struct{}
	proberWG sync.WaitGroup
	closeMu  sync.Mutex
	isClosed bool

	stats clusterCounters
}

// New dials a cluster of len(shardAddrs) shards; shardAddrs[i] lists
// the replica addresses of shard i. Nodes that are down at startup
// begin in the down state and are re-admitted by the prober; New only
// fails when a shard has zero reachable replicas (such a shard could
// never serve a page).
func New(shardAddrs [][]string, opts Options) (*Cluster, error) {
	if len(shardAddrs) == 0 {
		return nil, errors.New("memcluster: no shards")
	}
	opts.fillDefaults()
	cl := &Cluster{
		opts:    opts,
		regions: make(map[uint64]*cregion),
		nextReg: 1,
		closed:  make(chan struct{}),
	}
	topo := &topology{}
	cl.nextID = 1
	for si, addrs := range shardAddrs {
		if len(addrs) == 0 {
			cl.teardown(topo)
			return nil, fmt.Errorf("memcluster: shard %d has no replicas", si)
		}
		sh := &shard{id: cl.nextID}
		cl.nextID++
		up := 0
		for _, addr := range addrs {
			r := &replica{addr: addr}
			if c, err := memnode.DialOptions(addr, opts.Node); err == nil {
				r.c = c
				r.healthy = true
				up++
			} else {
				r.downSince = time.Now() //magevet:ok degraded-time accounting on a real network client
				r.probeBackoff = opts.ProbeInterval
			}
			sh.replicas = append(sh.replicas, r)
		}
		if up == 0 {
			cl.teardown(topo)
			_ = closeShard(sh)
			return nil, fmt.Errorf("memcluster: shard %d: no replica reachable", si)
		}
		topo.shards = append(topo.shards, sh)
		topo.ids = append(topo.ids, sh.id)
	}
	cl.topo = topo
	if !opts.DisableProber {
		cl.proberWG.Add(1)
		go cl.proberLoop() //magevet:ok real network client: one health-probe goroutine per cluster
	}
	return cl, nil
}

func closeShard(sh *shard) error {
	var err error
	for _, r := range sh.replicas {
		if r.c != nil {
			if cerr := r.c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

func (cl *Cluster) teardown(topo *topology) {
	for _, sh := range topo.shards {
		_ = closeShard(sh) // constructor failure path; the original error wins
	}
}

// Close stops the prober and closes every per-node client. Pending
// ops fail with the node clients' ErrClosed.
func (cl *Cluster) Close() error {
	cl.closeMu.Lock()
	if cl.isClosed {
		cl.closeMu.Unlock()
		return nil
	}
	cl.isClosed = true
	close(cl.closed)
	cl.closeMu.Unlock()
	cl.proberWG.Wait()
	cl.topoMu.Lock()
	topo := cl.topo
	cl.topoMu.Unlock()
	var err error
	for _, sh := range topo.shards {
		if cerr := closeShard(sh); err == nil {
			err = cerr
		}
	}
	return err
}

func (cl *Cluster) checkClosed() error {
	select {
	case <-cl.closed:
		return ErrClosed
	default:
		return nil
	}
}

// Register sets up a region of size bytes on every reachable replica
// of every shard and returns a stable cluster handle. Every node
// registers the full size — offsets are region-relative everywhere,
// so any node can serve any page it owns without translation.
// Replicas that are down (or fail the register) are left without a
// handle; resync registers the region before re-admitting them.
//
// Registration is not atomic across shards, but it is rolled back:
// when it fails because a shard's replicas all refused, every handle
// already granted by earlier shards' nodes is released with a
// best-effort UNREGISTER, so a failed Register leaks capacity only on
// nodes that are simultaneously unreachable (where resync will not
// re-admit the orphan region anyway). Treat a failed Register as the
// capacity/outage signal it is rather than retrying it in a tight
// loop.
func (cl *Cluster) Register(size int64) (uint64, error) {
	if err := cl.checkClosed(); err != nil {
		return 0, err
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	reg := &cregion{size: size}
	handles := make(map[*replica]uint64)
	for si, sh := range topo.shards {
		ok := 0
		sh.mu.Lock()
		replicas := append([]*replica(nil), sh.replicas...)
		sh.mu.Unlock()
		for _, r := range replicas {
			if r.c == nil {
				continue
			}
			h, err := r.c.Register(size)
			if err != nil {
				continue
			}
			handles[r] = h
			ok++
		}
		if ok == 0 {
			// Roll back handles already granted by earlier shards' nodes.
			// Best-effort: a replica that fails the unregister keeps the
			// orphan region until its server restarts.
			for r, h := range handles { //magevet:ok best-effort rollback: each handle released exactly once, order cannot matter
				if r.c != nil {
					_ = r.c.Unregister(h) // best-effort; the register error below is the one to surface
				}
			}
			return 0, fmt.Errorf("memcluster: shard %d: register failed on every replica", si)
		}
	}
	reg.handles.Store(handles)
	cl.regMu.Lock()
	handle := cl.nextReg
	cl.nextReg++
	cl.regions[handle] = reg
	cl.regMu.Unlock()
	return handle, nil
}

func (cl *Cluster) region(handle uint64) (*cregion, error) {
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	reg, ok := cl.regions[handle]
	if !ok {
		return nil, fmt.Errorf("memcluster: unknown region handle %d", handle)
	}
	return reg, nil
}

// seg is one ownership-page-aligned piece of a byte range: it lies
// entirely within the page keyed by key, on shard shardIdx.
type seg struct {
	key      uint64
	shardIdx int
	off      int64 // region offset
	length   int64
	outOff   int64 // offset in the caller's assembled buffer
}

// segments splits [offset, offset+length) along ownership-page
// boundaries and assigns each piece its owning shard under topo.
func (cl *Cluster) segments(topo *topology, handle uint64, offset, length int64) []seg {
	pb := cl.opts.PageBytes
	segs := make([]seg, 0, (length+pb-1)/pb+1)
	var outOff int64
	for length > 0 {
		pageNo := offset / pb
		n := pb - offset%pb
		if n > length {
			n = length
		}
		key := placement.Key(handle, uint64(pageNo))
		segs = append(segs, seg{
			key:      key,
			shardIdx: placement.ShardOfIDs(key, topo.ids),
			off:      offset,
			length:   n,
			outOff:   outOff,
		})
		offset += n
		outOff += n
		length -= n
	}
	return segs
}

// snapshotReplicas copies a shard's selection state out from under its
// lock: the replica list with health and weights as parallel slices.
func snapshotReplicas(sh *shard) (reps []*replica, weights []int64, healthy []bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reps = append(reps, sh.replicas...)
	for _, r := range reps {
		weights = append(weights, r.weight)
		healthy = append(healthy, r.healthy && r.c != nil)
	}
	return reps, weights, healthy
}

// markDown demotes a replica after an op or probe failure. The caller
// reports whether this was a data-path failover (counted) or a probe
// demotion (a flap either way).
func (cl *Cluster) markDown(sh *shard, r *replica, failover bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if failover {
		r.failovers++
		cl.stats.failovers.Add(1)
	}
	if !r.healthy {
		return
	}
	r.healthy = false
	r.downSince = time.Now() //magevet:ok degraded-time accounting on a real network client
	r.flaps++
	cl.stats.flaps.Add(1)
}

// readOne reads [off, off+length) — entirely within one ownership
// page — from shard sh, preferring the memory-weighted pick among
// healthy replicas, failing over through the remaining healthy ones,
// and finally degrading to replicas marked down (a stale answer from
// a survivor beats no answer). The returned buffer follows the
// memnode.Client.Read contract (PutBuf-able).
func (cl *Cluster) readOne(reg *cregion, sh *shard, shardIdx int, key uint64, off, length int64) ([]byte, error) {
	reps, weights, healthy := snapshotReplicas(sh)
	order := selectionOrder(key, reps, weights, healthy)
	var lastErr error
	for _, i := range order {
		r := reps[i]
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
		lastErr = errors.New("no replica holds the region")
	}
	return nil, errAllReplicasFailed(shardIdx, lastErr)
}

// writeOne writes data — entirely within one ownership page — to
// every healthy replica of the owning shard. One replica accepting
// the write is success; replicas that fail demote and resync later.
// After completion the page is logged dirty for any replica mid-
// resync, which is what lets resync's final settle pass (run with all
// ops drained) guarantee no missed write.
func (cl *Cluster) writeOne(reg *cregion, sh *shard, shardIdx int, key uint64, off int64, data []byte) error {
	reps, _, healthy := snapshotReplicas(sh)
	acks := 0
	var lastErr error
	type pend struct {
		r *replica
		p *memnode.Pending
	}
	var pends []pend
	for i, r := range reps {
		if !healthy[i] {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		pends = append(pends, pend{r, r.c.WriteAsync(h, off, data)})
	}
	// Drain every pending even on a terminal error: an unwaited pending
	// still references the caller's data buffer, and a sibling replica
	// that did apply the write must be dirty-logged for any in-flight
	// resync before this function returns.
	var termErr error
	for _, p := range pends {
		if _, err := p.p.Wait(); err != nil {
			if memnode.IsTerminal(err) {
				if termErr == nil {
					termErr = err
				}
				continue
			}
			cl.markDown(sh, p.r, true)
			lastErr = err
			continue
		}
		acks++
	}
	cl.logDirty(sh, key)
	if termErr != nil {
		return termErr
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = errors.New("no healthy replica")
		}
		return errAllReplicasFailed(shardIdx, lastErr)
	}
	if lastErr != nil {
		cl.stats.degradedWrites.Add(1)
	}
	return nil
}

// logDirty records a completed write's page for every replica of the
// shard that is mid-resync, and for a live rebalance when the page
// moves shards under the pending topology.
func (cl *Cluster) logDirty(sh *shard, key uint64) {
	if sh.resyncCount.Load() > 0 {
		sh.mu.Lock()
		for _, r := range sh.replicas {
			if r.resyncing {
				if r.dirty == nil {
					r.dirty = make(map[uint64]struct{})
				}
				r.dirty[key] = struct{}{}
			}
		}
		sh.mu.Unlock()
	}
	if cl.migOn.Load() {
		cl.migMu.Lock()
		if m := cl.mig; m != nil {
			if placement.ShardOfIDs(key, m.oldIDs) != placement.ShardOfIDs(key, m.newIDs) {
				m.dirty[key] = struct{}{}
			}
		}
		cl.migMu.Unlock()
	}
}

// Read performs a one-sided read of length bytes at offset, fanning
// out across shards when the range spans ownership pages. The
// returned buffer may be passed to memnode.PutBuf.
func (cl *Cluster) Read(handle uint64, offset, length int64) ([]byte, error) {
	if err := cl.checkClosed(); err != nil {
		return nil, err
	}
	reg, err := cl.region(handle)
	if err != nil {
		return nil, err
	}
	if length <= 0 || offset < 0 || length > reg.size || offset > reg.size-length {
		return nil, fmt.Errorf("memcluster: bad read off=%d len=%d in %d", offset, length, reg.size)
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	// Fast path: a read inside one ownership page is one node op and
	// returns that node's buffer without reassembly.
	if offset/cl.opts.PageBytes == (offset+length-1)/cl.opts.PageBytes {
		key := placement.Key(handle, uint64(offset/cl.opts.PageBytes))
		si := placement.ShardOfIDs(key, topo.ids)
		return cl.readOne(reg, topo.shards[si], si, key, offset, length)
	}
	out := make([]byte, length)
	if err := cl.readSpanLocked(reg, topo, handle, offset, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write performs a one-sided write, replicated to every healthy
// replica of each owning shard.
func (cl *Cluster) Write(handle uint64, offset int64, data []byte) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	reg, err := cl.region(handle)
	if err != nil {
		return err
	}
	length := int64(len(data))
	if length == 0 || offset < 0 || length > reg.size || offset > reg.size-length {
		return fmt.Errorf("memcluster: bad write off=%d len=%d in %d", offset, length, reg.size)
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	segs := cl.segments(topo, handle, offset, length)
	for _, sg := range segs {
		if err := cl.writeOne(reg, topo.shards[sg.shardIdx], sg.shardIdx, sg.key,
			sg.off, data[sg.outOff:sg.outOff+sg.length]); err != nil {
			return err
		}
	}
	return nil
}

// ReadVInto reads len(offsets) pages, page i of len(dst[i]) bytes at
// offsets[i] into dst[i], grouping the descriptors by owning shard and
// issuing one batched READV per shard. Descriptors that straddle an
// ownership-page boundary fall back to the split single-read path. The
// buffers are the caller's; every replica a shard's ladder tries fills
// the same ones.
func (cl *Cluster) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	reg, err := cl.region(handle)
	if err != nil {
		return err
	}
	if len(dst) == 0 || len(dst) > memnode.MaxBatchPages || len(dst) != len(offsets) {
		return fmt.Errorf("memcluster: bad batch shape (%d offsets, %d buffers)", len(offsets), len(dst))
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	pb := cl.opts.PageBytes
	// Group whole-page descriptors by shard; split stragglers.
	byShard := make(map[int][]int)
	for i, off := range offsets {
		n := int64(len(dst[i]))
		if off < 0 || n == 0 || n > reg.size || off > reg.size-n {
			return fmt.Errorf("memcluster: batch desc %d out of bounds off=%d len=%d in %d", i, off, n, reg.size)
		}
		if off/pb != (off+n-1)/pb {
			// Straddles ownership pages: read via the splitting path.
			if err := cl.readSpanLocked(reg, topo, handle, off, dst[i]); err != nil {
				return err
			}
			continue
		}
		si := placement.ShardOfIDs(placement.Key(handle, uint64(off/pb)), topo.ids)
		byShard[si] = append(byShard[si], i)
	}
	for si, idxs := range byShard { //magevet:ok per-shard sub-ops are independent; results land by original index
		offs, bufs := offsets, dst
		if len(idxs) != len(dst) {
			offs, bufs = make([]int64, len(idxs)), make([][]byte, len(idxs))
			for j, i := range idxs {
				offs[j], bufs[j] = offsets[i], dst[i]
			}
		}
		if err := cl.readVShard(reg, topo.shards[si], si, handle, offs, bufs); err != nil {
			return err
		}
	}
	return nil
}

// ReadV is ReadVInto into pages of pageBytes each that it allocates as
// one contiguous buffer.
func (cl *Cluster) ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error) {
	if len(offsets) == 0 || len(offsets) > memnode.MaxBatchPages || pageBytes <= 0 || pageBytes > memnode.MaxIO/int64(len(offsets)) {
		return nil, fmt.Errorf("memcluster: bad batch shape (%d pages of %d bytes)", len(offsets), pageBytes)
	}
	pages := memnode.SplitPages(make([]byte, pageBytes*int64(len(offsets))), pageBytes)
	if err := cl.ReadVInto(handle, offsets, pages); err != nil {
		return nil, err
	}
	return pages, nil
}

// readSpanLocked is Read's splitting path, into out, for callers already
// holding the topology read lock.
func (cl *Cluster) readSpanLocked(reg *cregion, topo *topology, handle uint64, offset int64, out []byte) error {
	for _, sg := range cl.segments(topo, handle, offset, int64(len(out))) {
		body, err := cl.readOne(reg, topo.shards[sg.shardIdx], sg.shardIdx, sg.key, sg.off, sg.length)
		if err != nil {
			return err
		}
		copy(out[sg.outOff:sg.outOff+sg.length], body)
		memnode.PutBuf(body)
	}
	return nil
}

// readVShard issues one READV against one shard with the same
// failover ladder as readOne: a replica that fails mid-batch leaves
// dst to the next one.
func (cl *Cluster) readVShard(reg *cregion, sh *shard, shardIdx int, handle uint64, offs []int64, dst [][]byte) error {
	key := placement.Key(handle, uint64(offs[0]/cl.opts.PageBytes))
	reps, weights, healthy := snapshotReplicas(sh)
	order := selectionOrder(key, reps, weights, healthy)
	var lastErr error
	for _, i := range order {
		r := reps[i]
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
		lastErr = errors.New("no replica holds the region")
	}
	return errAllReplicasFailed(shardIdx, lastErr)
}

// selectionOrder builds readOne's replica ladder: weighted healthy
// draws first, then the degraded tail.
func selectionOrder(key uint64, reps []*replica, weights []int64, healthy []bool) []int {
	order := make([]int, 0, len(reps))
	taken := make([]bool, len(reps))
	mask := append([]bool(nil), healthy...)
	for attempt := 0; attempt < len(reps); attempt++ {
		i := placement.SelectReplica(key, attempt, weights, mask)
		if i == -1 {
			break
		}
		taken[i] = true
		order = append(order, i)
		mask[i] = false //magevet:ok mask is consumed in place by design: each draw excludes prior picks
	}
	for i := range reps {
		if !taken[i] && reps[i].c != nil {
			order = append(order, i)
		}
	}
	return order
}

// WriteV writes len(pages) pages at the matching offsets, one batched
// WRITEV per owning shard per healthy replica.
func (cl *Cluster) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	if err := cl.checkClosed(); err != nil {
		return err
	}
	reg, err := cl.region(handle)
	if err != nil {
		return err
	}
	if len(pages) == 0 || len(pages) > memnode.MaxBatchPages || len(pages) != len(offsets) {
		return fmt.Errorf("memcluster: bad batch shape (%d offsets, %d pages)", len(offsets), len(pages))
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	pb := cl.opts.PageBytes
	byShard := make(map[int][]int)
	for i, off := range offsets {
		length := int64(len(pages[i]))
		if length == 0 || off < 0 || length > reg.size || off > reg.size-length {
			return fmt.Errorf("memcluster: batch desc %d out of bounds off=%d len=%d in %d", i, off, length, reg.size)
		}
		if off/pb != (off+length-1)/pb {
			// Straddling descriptor: split it along ownership pages.
			for _, sg := range cl.segments(topo, handle, off, length) {
				if err := cl.writeOne(reg, topo.shards[sg.shardIdx], sg.shardIdx, sg.key,
					sg.off, pages[i][sg.outOff:sg.outOff+sg.length]); err != nil {
					return err
				}
			}
			continue
		}
		si := placement.ShardOfIDs(placement.Key(handle, uint64(off/pb)), topo.ids)
		byShard[si] = append(byShard[si], i)
	}
	for si, idxs := range byShard { //magevet:ok per-shard sub-ops are independent; results land by original index
		sort.Ints(idxs)
		offs := make([]int64, len(idxs))
		pgs := make([][]byte, len(idxs))
		keys := make([]uint64, len(idxs))
		for j, i := range idxs {
			offs[j] = offsets[i]
			pgs[j] = pages[i]
			keys[j] = placement.Key(handle, uint64(offsets[i]/pb))
		}
		if err := cl.writeVShard(reg, topo.shards[si], si, keys, offs, pgs); err != nil {
			return err
		}
	}
	return nil
}

// writeVShard replicates one WRITEV batch to every healthy replica of
// a shard.
func (cl *Cluster) writeVShard(reg *cregion, sh *shard, shardIdx int, keys []uint64, offs []int64, pgs [][]byte) error {
	reps, _, healthy := snapshotReplicas(sh)
	acks := 0
	var lastErr, termErr error
	for i, r := range reps {
		if !healthy[i] {
			continue
		}
		h, ok := reg.handle(r)
		if !ok {
			continue
		}
		if err := r.c.WriteV(h, offs, pgs); err != nil {
			if memnode.IsTerminal(err) {
				// Stop replicating (the same arguments would fail the same
				// way) but fall through to the dirty log: a replica that
				// already acked must not leave the batch unlogged for an
				// in-flight resync.
				termErr = err
				break
			}
			cl.markDown(sh, r, true)
			lastErr = err
			continue
		}
		acks++
	}
	for _, k := range keys {
		cl.logDirty(sh, k)
	}
	if termErr != nil {
		return termErr
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = errors.New("no healthy replica")
		}
		return errAllReplicasFailed(shardIdx, lastErr)
	}
	if lastErr != nil {
		cl.stats.degradedWrites.Add(1)
	}
	return nil
}
