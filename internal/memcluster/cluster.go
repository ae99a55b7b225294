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
	"cmp"
	"errors"
	"fmt"
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

// replica is one memnode endpoint of a shard. Health, weights, the
// resync dirty set and the client pointer are guarded by the owning
// shard's mu. The prober stores the pointer when it first dials a
// replica that was dead at New, so nothing reads it bare: an op carries
// the client it saw under the lock in its rungs (memnode.Client is
// internally synchronized, so the copy is used lock-free).
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
	for _, g := range dialled(sh) {
		if cerr := g.c.Close(); err == nil {
			err = cerr
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
	var granted []rung
	for si, sh := range topo.shards {
		before := len(granted)
		for _, g := range dialled(sh) {
			if h, err := g.c.Register(size); err == nil {
				granted = append(granted, rung{g.r, g.c, h})
			}
		}
		if len(granted) == before {
			// Roll back handles already granted by earlier shards' nodes.
			// Best-effort: a replica that fails the unregister keeps the
			// orphan region until its server restarts.
			for _, g := range granted {
				_ = g.c.Unregister(g.h) // best-effort; the register error below is the one to surface
			}
			return 0, fmt.Errorf("memcluster: shard %d: register failed on every replica", si)
		}
	}
	handles := make(map[*replica]uint64, len(granted))
	for _, g := range granted {
		handles[g.r] = g.h
	}
	reg.handles.Store(handles)
	cl.regMu.Lock()
	handle := cl.nextReg
	cl.nextReg++
	cl.regions[handle] = reg
	cl.regMu.Unlock()
	return handle, nil
}

// region is the region of handle on a cluster that is not closed.
func (cl *Cluster) region(handle uint64) (*cregion, error) {
	if err := cl.checkClosed(); err != nil {
		return nil, err
	}
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	reg, ok := cl.regions[handle]
	if !ok {
		return nil, fmt.Errorf("memcluster: unknown region handle %d", handle)
	}
	return reg, nil
}

// bounds is the one rule for whether [off, off+n) lies inside the
// region, in the overflow-safe form (off+n may wrap). Read sizes a
// buffer from a length before route can judge it, so both use this.
func (reg *cregion) bounds(off, n int64) error {
	if n <= 0 || off < 0 || n > reg.size || off > reg.size-n {
		return fmt.Errorf("memcluster: out of bounds off=%d len=%d in %d", off, n, reg.size)
	}
	return nil
}

// rung is one step of an attempt list: a replica that holds the region,
// with the client and the region handle it had when the list was built
// under the shard's mu. Two orderings make lists and nothing else
// differs between callers: ladder for ops, holders for write targets
// and copy sources.
type rung struct {
	r *replica
	c *memnode.Client
	h uint64
}

// ladderRungs is the ladder an op builds without allocating: enough for
// the replica counts a cluster runs with; a longer ladder grows onto the
// heap.
const ladderRungs = 4

// appendRung adds r's rung unless r was never dialled or lacks the
// region. Caller holds the shard's mu.
func appendRung(rungs []rung, reg *cregion, r *replica) []rung {
	if h, ok := reg.handle(r); ok && r.c != nil {
		rungs = append(rungs, rung{r, r.c, h})
	}
	return rungs
}

// ladder appends to rungs the read order for key on sh: weighted draws
// among the healthy replicas for attempt 0, 1, ..., then the replicas
// marked down in list order (a stale answer from a survivor beats no
// answer). The ops pass a [ladderRungs]rung buffer of their own, so a
// read's ladder lives on its stack.
func (cl *Cluster) ladder(rungs []rung, sh *shard, reg *cregion, key uint64) []rung {
	// The draws' scratch stays on the stack for any sane replica count.
	var wbuf [8]int64
	var mbuf [8]bool
	weights, mask := wbuf[:0], mbuf[:0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, r := range sh.replicas {
		weights = append(weights, r.weight)
		mask = append(mask, r.healthy && r.c != nil)
	}
	for attempt := range sh.replicas {
		i := placement.SelectReplica(key, attempt, weights, mask)
		if i == -1 {
			break
		}
		mask[i] = false // each draw excludes the picks before it
		rungs = appendRung(rungs, reg, sh.replicas[i])
	}
	for _, r := range sh.replicas {
		if !r.healthy {
			rungs = appendRung(rungs, reg, r)
		}
	}
	return rungs
}

// holders lists the healthy replicas of sh that hold the region, minus
// skip (a resync target: its data is the stale data being replaced).
// They are where a write goes and where a copy reads from — a copy
// source must be current, not merely alive, so there is no degraded
// tail.
func holders(sh *shard, reg *cregion, skip *replica) []rung {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rungs := make([]rung, 0, len(sh.replicas))
	for _, r := range sh.replicas {
		if r != skip && r.healthy {
			rungs = appendRung(rungs, reg, r)
		}
	}
	return rungs
}

// dialled snapshots every replica of sh that has a client, healthy or
// not, for the callers that address nodes rather than a region
// (Register, Close); the rungs carry no handle.
func dialled(sh *shard) []rung {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rungs := make([]rung, 0, len(sh.replicas))
	for _, r := range sh.replicas {
		if r.c != nil {
			rungs = append(rungs, rung{r: r, c: r.c})
		}
	}
	return rungs
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

// climb is the only read loop: try each rung in order until one
// answers, lastErr being what the rung before the first failed of (nil:
// none did). try only names the verb.
func (cl *Cluster) climb(sh *shard, si int, rungs []rung, lastErr error, try func(rung) error) error {
	for _, g := range rungs {
		err := try(g)
		if cl.rungOver(sh, g, err) {
			return err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no replica holds the region")
	}
	return errAllReplicasFailed(si, lastErr)
}

// rungOver judges a rung that ended in err: a success or a terminal
// error ends the climb (the same request would fail the same way on
// every node); any other demotes the replica, and the climb goes on.
func (cl *Cluster) rungOver(sh *shard, g rung, err error) bool {
	if err == nil || memnode.IsTerminal(err) {
		return true
	}
	cl.markDown(sh, g.r, true)
	return false
}

// startClimb is climb with its first rung started, not run: start puts
// that rung's op on the wire with the hook that judges it. A failure
// that is not the end leaves the rest of the ladder to climb on a
// goroutine, memnode's rule for a started op's slow path. end gets what
// climb would have returned, once, where the climb ended.
func (cl *Cluster) startClimb(sh *shard, si int, rungs []rung, start func(rung, func(error)), try func(rung) error, end func(error)) {
	if len(rungs) == 0 {
		end(cl.climb(sh, si, nil, nil, try))
		return
	}
	start(rungs[0], func(err error) {
		if cl.rungOver(sh, rungs[0], err) {
			end(err)
			return
		}
		go func() { end(cl.climb(sh, si, rungs[1:], err, try)) }() //magevet:ok real network client: a failed rung's failover blocks, and a hook may not
	})
}

// replicate is the only write loop: send to every rung at once (the
// first inline, the rest on goroutines) and drain them all, even past
// a terminal error — a send still in flight references the caller's
// buffers, and a replica that did apply the write must be dirty-logged
// before this returns. One ack is success; replicas that fail demote
// and resync later. With log set the pages at (handle, offs) are then
// logged dirty, which is what lets a settle pass run with all ops
// drained guarantee no missed write; a migration copy passes false, or
// it would re-mark the very pages it just moved and the settle would
// never converge.
func (cl *Cluster) replicate(sh *shard, si int, rungs []rung, handle uint64, offs []int64, log bool, send func(rung) error) error {
	errs := make([]error, len(rungs))
	var wg sync.WaitGroup
	for i := 1; i < len(rungs); i++ {
		wg.Add(1)
		go func(i int) { //magevet:ok write fan-out on a real network client: the wait below, not goroutine scheduling, orders completion
			defer wg.Done()
			errs[i] = send(rungs[i])
		}(i)
	}
	if len(rungs) > 0 {
		errs[0] = send(rungs[0])
	}
	wg.Wait()
	acks := 0
	var lastErr, termErr error
	for i, err := range errs {
		switch {
		case err == nil:
			acks++
		case memnode.IsTerminal(err):
			if termErr == nil {
				termErr = err
			}
		default:
			cl.markDown(sh, rungs[i].r, true)
			lastErr = err
		}
	}
	if log {
		cl.logDirty(sh, handle, offs)
	}
	if termErr != nil {
		return termErr
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = errors.New("no healthy replica")
		}
		return errAllReplicasFailed(si, lastErr)
	}
	if lastErr != nil {
		cl.stats.degradedWrites.Add(1)
	}
	return nil
}

// logDirty records a completed write's pages for every replica of the
// shard that is mid-resync, and for a live rebalance the pages that
// move shards under the pending topology. Each offset lies in the page
// it names (route cut the request that way).
func (cl *Cluster) logDirty(sh *shard, handle uint64, offs []int64) {
	pb := cl.opts.PageBytes
	if sh.resyncCount.Load() > 0 {
		sh.mu.Lock()
		for _, r := range sh.replicas {
			if !r.resyncing {
				continue
			}
			if r.dirty == nil {
				r.dirty = make(map[uint64]struct{})
			}
			for _, off := range offs {
				r.dirty[placement.Key(handle, uint64(off/pb))] = struct{}{}
			}
		}
		sh.mu.Unlock()
	}
	if cl.migOn.Load() {
		cl.migMu.Lock()
		if m := cl.mig; m != nil {
			for _, off := range offs {
				if _, moves := m.lane(handle, off/pb); moves {
					m.dirty[placement.Key(handle, uint64(off/pb))] = struct{}{}
				}
			}
		}
		cl.migMu.Unlock()
	}
}

// readInto fills bufs from the first rung that answers; every rung
// tried fills the same buffers.
func (cl *Cluster) readInto(sh *shard, si int, rungs []rung, offs []int64, bufs [][]byte) error {
	return cl.climb(sh, si, rungs, nil, func(g rung) error { return g.c.ReadVInto(g.h, offs, bufs) })
}

// writeTo replicates one batch to every rung.
func (cl *Cluster) writeTo(sh *shard, si int, rungs []rung, handle uint64, offs []int64, bufs [][]byte, log bool) error {
	return cl.replicate(sh, si, rungs, handle, offs, log, func(g rung) error { return g.c.WriteV(g.h, offs, bufs) })
}

// part is the share of one request that one shard serves as one node
// op: descriptors that each lie inside one ownership page, at most
// MaxBatchPages of them and MaxIO bytes.
type part struct {
	si    int
	offs  []int64
	bufs  [][]byte
	bytes int64
}

// route is the only place a request's shape and bounds are judged. It
// cuts (offsets, bufs) along ownership pages by sub-slicing the
// caller's buffers — a descriptor that straddles a boundary becomes one
// entry on each side — and groups the pieces by owning shard into parts
// a node accepts. Parts of one shard keep the request's order. The parts
// are appended to parts, which the caller has on its stack with room for
// the common case's one.
func (cl *Cluster) route(parts []part, topo *topology, reg *cregion, handle uint64, offsets []int64, bufs [][]byte) ([]part, error) {
	if len(bufs) == 0 || len(bufs) != len(offsets) {
		return nil, fmt.Errorf("memcluster: bad batch shape (%d offsets, %d buffers)", len(offsets), len(bufs))
	}
	pb := cl.opts.PageBytes
	owner := func(off int64) int {
		return placement.ShardOfIDs(placement.Key(handle, uint64(off/pb)), topo.ids)
	}
	// Judge every descriptor before any is served, and notice the common
	// case on the way: one shard owns the whole request as one legal op,
	// which is then the caller's slices as they are.
	whole, one, total := len(bufs) <= memnode.MaxBatchPages, -1, int64(0)
	for i, off := range offsets {
		n := int64(len(bufs[i]))
		if err := reg.bounds(off, n); err != nil {
			return nil, fmt.Errorf("batch desc %d: %w", i, err)
		}
		if !whole {
			continue
		}
		si := owner(off)
		total += n
		whole = total <= memnode.MaxIO && off/pb == (off+n-1)/pb && (one == -1 || one == si)
		one = si
	}
	if whole {
		return append(parts, part{si: one, offs: offsets, bufs: bufs}), nil
	}
	open := make([]part, len(topo.shards)) // the part each shard is still filling
	for i, off := range offsets {
		for buf := bufs[i]; len(buf) > 0; {
			n := min(int64(len(buf)), pb-off%pb, memnode.MaxIO)
			si := owner(off)
			p := &open[si]
			if len(p.offs) == memnode.MaxBatchPages || p.bytes > memnode.MaxIO-n {
				parts = append(parts, *p)
				*p = part{}
			}
			p.si = si
			p.offs = append(p.offs, off)
			p.bufs = append(p.bufs, buf[:n:n])
			p.bytes += n
			off += n
			buf = buf[n:]
		}
	}
	for _, p := range open {
		if len(p.offs) > 0 {
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// each routes one request and runs do on every part, all under the
// topology read lock.
func (cl *Cluster) each(handle uint64, offsets []int64, bufs [][]byte, do func(reg *cregion, sh *shard, p part) error) error {
	reg, err := cl.region(handle)
	if err != nil {
		return err
	}
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	var one [1]part
	parts, err := cl.route(one[:0], topo, reg, handle, offsets, bufs)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err := do(reg, topo.shards[p.si], p); err != nil {
			return err
		}
	}
	return nil
}

// Read performs a one-sided read of length bytes at offset, fanning
// out across shards when the range spans ownership pages. The
// returned buffer may be passed to memnode.PutBuf.
func (cl *Cluster) Read(handle uint64, offset, length int64) ([]byte, error) {
	reg, err := cl.region(handle)
	if err != nil {
		return nil, err
	}
	if err := reg.bounds(offset, length); err != nil {
		return nil, err
	}
	pb := cl.opts.PageBytes
	if offset/pb != (offset+length-1)/pb || length > memnode.MaxIO {
		out := make([]byte, length)
		if err := cl.ReadVInto(handle, []int64{offset}, [][]byte{out}); err != nil {
			return nil, err
		}
		return out, nil
	}
	// A read inside one ownership page is a node's Read: the body is the
	// node's pooled buffer, where a ReadVInto of one would make this layer
	// allocate a page. (A caller with a page of its own, as the pager's
	// demand fault has its frame, calls ReadVInto, which is a wire READ
	// too.)
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	topo := cl.topo
	key := placement.Key(handle, uint64(offset/pb))
	si := placement.ShardOfIDs(key, topo.ids)
	sh := topo.shards[si]
	var body []byte
	var buf [ladderRungs]rung
	err = cl.climb(sh, si, cl.ladder(buf[:0], sh, reg, key), nil, func(g rung) (err error) {
		body, err = g.c.Read(g.h, offset, length)
		return err
	})
	return body, err
}

// Write performs a one-sided write, replicated to every healthy
// replica of each owning shard: a WriteV of one.
func (cl *Cluster) Write(handle uint64, offset int64, data []byte) error {
	return cl.WriteV(handle, []int64{offset}, [][]byte{data})
}

// ReadVInto reads len(offsets) pages, page i of len(dst[i]) bytes at
// offsets[i] into dst[i], one batched READV per part route cuts the
// request into. The buffers are the caller's; every replica a shard's
// ladder tries fills the same ones.
func (cl *Cluster) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	return cl.each(handle, offsets, dst, func(reg *cregion, sh *shard, p part) error {
		key := placement.Key(handle, uint64(p.offs[0]/cl.opts.PageBytes))
		var buf [ladderRungs]rung
		return cl.readInto(sh, p.si, cl.ladder(buf[:0], sh, reg, key), p.offs, p.bufs)
	})
}

// StartReadVInto is ReadVInto started, not run: each part route cuts the
// request into starts its ladder's first rung with that node's
// StartReadVInto, and done is called once, after the last part has
// ended, with the error ReadVInto would have returned. The buffers are
// lent, and the topology barrier held, until then. done runs where the
// last part ended, and is held to memnode's rules for a hook.
func (cl *Cluster) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	reg, err := cl.region(handle)
	if err != nil {
		done(err)
		return
	}
	cl.topoMu.RLock()
	topo := cl.topo
	parts, err := cl.route(nil, topo, reg, handle, offsets, dst)
	if err != nil {
		cl.topoMu.RUnlock()
		done(err)
		return
	}
	errs, left := make([]error, len(parts)), new(atomic.Int32)
	left.Store(int32(len(parts)))
	for i, p := range parts {
		sh := topo.shards[p.si]
		key := placement.Key(handle, uint64(p.offs[0]/cl.opts.PageBytes))
		cl.startClimb(sh, p.si, cl.ladder(make([]rung, 0, ladderRungs), sh, reg, key),
			func(g rung, hook func(error)) { g.c.StartReadVInto(g.h, p.offs, p.bufs, hook) },
			func(g rung) error { return g.c.ReadVInto(g.h, p.offs, p.bufs) },
			func(err error) {
				if errs[i] = err; left.Add(-1) == 0 {
					cl.topoMu.RUnlock()
					done(cmp.Or(errs...)) // the first part's failure, as ReadVInto meets them
				}
			})
	}
}

// WriteV writes len(pages) pages at the matching offsets, one batched
// WRITEV per part per healthy replica.
func (cl *Cluster) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	return cl.each(handle, offsets, pages, func(reg *cregion, sh *shard, p part) error {
		return cl.writeTo(sh, p.si, holders(sh, reg, nil), handle, p.offs, p.bufs, true)
	})
}
