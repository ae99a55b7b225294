// Shared-memory transport: client side.
//
// A shmStream is one negotiated shm connection generation, plugging
// into the same retry/reconnect/REGISTER-replay stack as the TCP
// streams (it implements the link interface client.go dispatches on).
// Submission is inline — the submitting goroutine allocates an arena
// extent, stages the request payload, publishes a submission-ring entry
// and rings the server's doorbell when it sleeps; a single completer
// goroutine drains the completion ring, copies response bytes out of
// the arena — into the buffers the call names for a READV, into pooled
// buffers otherwise — and resolves calls by request ID.
//
// Every value read from shared memory is hostile input: implausible
// ring indices, unknown or duplicate completion IDs, and lengths
// exceeding the call's own extent all poison the stream (every pending
// call fails, the client transparently re-dials — and falls back to TCP
// if the server no longer offers shm). The completion carries no
// offsets; response bytes are always read from the extent the client
// itself recorded at submission.
package memnode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"        //magevet:ok memnode is a real transport client, not virtual-time simulation code
	"sync/atomic" //magevet:ok host-side arena registry gate, not simulation state
	"time"
	"unsafe"
)

// errShmUnsupported is surfaced when Options.Transport forces shm on a
// platform (or against a server) that cannot provide it.
var errShmUnsupported = errors.New("memnode: shm transport unsupported on this platform")

// helloExt is the decoded shm extension of a HELLO response.
type helloExt struct {
	shm   bool
	token uint64
	path  string
}

// parseHelloExt decodes the optional extension after the mandatory
// magic+version. Anything malformed reads as "no shm offered" — the
// extension can only ever widen the transport choice, never break the
// TCP path.
func parseHelloExt(body []byte) helloExt {
	var e helloExt
	if len(body) < helloRespLen+18 {
		return e
	}
	if binary.LittleEndian.Uint64(body[16:])&helloFlagShm == 0 {
		return e
	}
	e.token = binary.LittleEndian.Uint64(body[24:])
	pl := int(binary.LittleEndian.Uint16(body[32:]))
	// len(body) >= 34 held by the caller's length check; subtracted form
	// so the comparison cannot wrap.
	if pl == 0 || len(body)-34 < pl {
		return e
	}
	e.path = string(body[34 : 34+pl])
	e.shm = true
	return e
}

// dialShm performs the unix-socket handshake advertised by ext and
// returns a live shm stream. Any failure leaves no residue: the caller
// keeps its healthy TCP connection and falls back.
func (c *Client) dialShm(ext helloExt) (*shmStream, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.Dial("unix", ext.path)
	if err != nil {
		return nil, fmt.Errorf("shm dial: %w", err)
	}
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		_ = conn.Close() // not a unix conn; nothing to salvage
		return nil, errors.New("shm dial: not a unix connection")
	}
	fail := func(err error) (*shmStream, error) {
		_ = uc.Close() // handshake failed; the returned error wins
		return nil, err
	}
	if err := uc.SetDeadline(c.deadline()); err != nil {
		return fail(err)
	}
	window := c.opts.Window
	if window > shmMaxWindow {
		window = shmMaxWindow
	}
	var req [shmHelloReqLen]byte
	binary.LittleEndian.PutUint64(req[0:], shmHelloMagic)
	binary.LittleEndian.PutUint64(req[8:], ext.token)
	binary.LittleEndian.PutUint64(req[16:], uint64(window))
	if _, err := uc.Write(req[:]); err != nil {
		return fail(fmt.Errorf("shm hello: %w", err))
	}
	resp := make([]byte, shmHelloRespLen)
	fd, err := shmRecvFd(uc, resp)
	if err != nil {
		return fail(fmt.Errorf("shm hello response: %w", err))
	}
	if resp[0] != statusOK {
		if fd >= 0 {
			_ = closeFd(fd) // refusal should carry no fd; drop it either way
		}
		n := int(resp[1])
		if n > len(resp)-2 {
			n = len(resp) - 2
		}
		return fail(fmt.Errorf("shm refused: %s", resp[2:2+n]))
	}
	if fd < 0 {
		return fail(errors.New("shm hello response carried no segment fd"))
	}
	layout := shmLayout{
		entries:    binary.LittleEndian.Uint64(resp[1:]),
		arenaOff:   int64(binary.LittleEndian.Uint64(resp[9:])),
		arenaBytes: int64(binary.LittleEndian.Uint64(resp[17:])),
		segBytes:   int64(binary.LittleEndian.Uint64(resp[25:])),
		token:      ext.token,
	}
	size, err := shmFdSize(fd)
	if err == nil {
		err = layout.validate(size)
	}
	if err != nil {
		_ = closeFd(fd) // invalid segment; the validation error wins
		return fail(err)
	}
	seg, err := shmMap(fd, layout.segBytes)
	_ = closeFd(fd) // the mapping keeps the segment alive; the fd is done
	if err != nil {
		return fail(fmt.Errorf("shm map: %w", err))
	}
	if err := layout.checkStamp(seg); err != nil {
		shmUnmap(seg)
		return fail(err)
	}
	if err := uc.SetDeadline(time.Time{}); err != nil {
		shmUnmap(seg)
		return fail(err)
	}
	st := &shmStream{
		c:     c,
		conn:  uc,
		seg:   seg,
		arena: seg[layout.arenaOff : layout.arenaOff+layout.arenaBytes],
		alloc: newShmArena(layout.arenaBytes, window),
		sq:    newShmRing(seg, shmHdrBytes, layout.entries, shmOffSqProd, shmOffSqCons),
		cq:    newShmRing(seg, shmHdrBytes+int64(layout.entries)*shmSlotBytes, layout.entries, shmOffCqCons, shmOffCqProd),
	}
	st.srvSleep = shmWord(seg, shmOffSrvSleep)
	st.cliSleep = shmWord(seg, shmOffCliSleep)
	inline, idle := uint32(shmInlinePolls), uint32(shmSpinYields)
	if c.shmParkOnly.Load() {
		inline, idle = 0, 0
	}
	st.inline.init(inline, &c.shmWaits)
	st.idle.init(idle, &c.shmWaits)
	st.pending = make([]*call, layout.entries)
	st.batch = make([]shmDone, 0, layout.entries)
	st.refs.Store(1) // the completer's reference
	shmRegisterArena(st)
	go st.completer() //magevet:ok real transport client: one completion-demux goroutine per shm connection
	return st, nil
}

// shmStream is one live shm connection generation on the client.
type shmStream struct {
	c     *Client
	conn  *net.UnixConn
	seg   []byte
	arena []byte
	alloc *shmArena
	sq    shmRing // producer view of the submission ring
	cq    shmRing // consumer view of the completion ring

	srvSleep *uint64
	cliSleep *uint64

	// Yield budgets (shm_wait.go): inline is shared by the submitters —
	// polling for their completions and waiting out backpressure — and
	// idle is the completer's before it parks on the doorbell socket.
	inline shmWait
	idle   shmWait
	bellDl shmDeadline // write deadline bounding doorbell writes
	parkDl shmDeadline // read deadline ticking under the parked completer

	// mu guards stream state and the submission side of the ring. It is
	// never held across socket IO or arena data copies.
	mu      sync.Mutex
	err     error
	idSrc   uint64
	pending []*call // slot = id & (entries-1); one live call per slot
	npend   int

	// Mapping lifetime: refs counts the completer, submitters inside
	// arena sections, and outstanding zero-copy read bodies. poisoned is
	// the lock-free gate fail() sets; the holder dropping refs to zero
	// after poisoning unmaps, exactly once.
	refs      atomic.Int64
	poisoned  atomic.Bool
	unmapOnce sync.Once

	// cqSeen mirrors cq.local (republished after each locked drain) so
	// pollers can test for completion-ring progress without the lock.
	cqSeen atomic.Uint64

	batch []shmDone // completer-only scratch for lock-batched completions
}

type shmDone struct {
	ca *call
	e  cqEntry
}

// acquire takes a mapping reference; the segment cannot be unmapped
// while any reference is held. Fails once the stream is poisoned. The
// increment-then-check order matters: once our increment lands, refs
// cannot reach zero under us, so either we observed poisoned and back
// out through release (never touching the mapping), or any concurrent
// fail leaves the unmap to our eventual release.
func (st *shmStream) acquire() error {
	st.refs.Add(1)
	if st.poisoned.Load() {
		st.mu.Lock()
		err := st.err
		st.mu.Unlock()
		st.release()
		return err
	}
	return nil
}

// release drops a mapping reference; the last release after poisoning
// unmaps the segment. Deferring the munmap to this point means no
// goroutine can ever touch freed mapping memory.
func (st *shmStream) release() {
	if st.refs.Add(-1) == 0 && st.poisoned.Load() {
		st.unmapOnce.Do(st.teardown)
	}
}

func (st *shmStream) alive() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err == nil
}

// fail poisons the stream exactly once: the doorbell socket closes
// (waking the completer and notifying the server), and every pending
// call completes with err. The mapping is unmapped by the last
// reference holder, never here.
func (st *shmStream) fail(err error) {
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return
	}
	st.err = err
	st.poisoned.Store(true) // after err: poisoned readers always find the error
	var pend []*call
	for i, ca := range st.pending {
		if ca != nil {
			pend = append(pend, ca)
			st.pending[i] = nil
		}
	}
	st.npend = 0
	st.mu.Unlock()
	_ = st.conn.Close() // the stream is already poisoned; nothing to salvage
	st.c.countTimeout(err)
	for _, ca := range pend {
		ca.fail(err)
	}
}

// needBytes returns the arena extent size an op requires: enough for
// its request payload and its response data, whichever is larger.
func needBytes(ca *call) int64 {
	switch ca.op {
	case opRegister:
		return registerRespLen
	case opStat:
		return statRespLen
	case opProbe:
		return probeRespLen
	case opUnregister:
		return 64 // no response data; room for an error message
	case opReadV:
		return max(ca.dstLen, ca.length)
	default: // opRead reads length bytes; opWrite/opWriteV stage length bytes
		return ca.length
	}
}

// start submits one request on the caller's goroutine: an arena extent
// for it, its payload staged there, its entry published on the
// submission ring, the server's doorbell rung if the server sleeps. What
// can make it wait is backpressure — an arena or a ring momentarily
// full of in-flight calls — which the op's deadline bounds without
// poisoning the stream. A request that cannot be submitted completes
// here, with st.mu released.
func (st *shmStream) start(ca *call) {
	// Submission is inline and completion takes the call out of the
	// pending table: past its completion nobody of the stream's holds ca.
	ca.markSent()
	ca.body, ca.err = nil, nil
	ca.resetGate()
	need := needBytes(ca)
	if need < 0 || need > int64(len(st.arena)) {
		ca.fail(&serverError{msg: fmt.Sprintf("op %d needs %d arena bytes, segment has %d", ca.op, need, len(st.arena))})
		return
	}
	if err := st.acquire(); err != nil {
		ca.fail(err)
		return
	}
	defer st.release()
	// The deadline of a call that carries none is computed lazily, on
	// this and every other slow path, so the inline-completing hot path
	// never reads the wall clock.
	stallDl := ca.deadline
	overdue := func() bool {
		if stallDl.IsZero() {
			stallDl = st.c.deadline()
		}
		return time.Now().After(stallDl) //magevet:ok per-op network deadline
	}
	var extOff, extCap int64
	tryAlloc := func() (ok bool) {
		extOff, extCap, ok = st.alloc.alloc(need)
		return ok
	}
	for !tryAlloc() {
		st.mu.Lock()
		err := st.err
		st.mu.Unlock()
		if err == nil && overdue() {
			err = fmt.Errorf("memnode: arena exhausted past op deadline: %w", errShmStall)
		}
		if err != nil {
			ca.fail(err)
			return
		}
		if st.stall(tryAlloc) {
			break
		}
	}
	ca.extOff, ca.extCap = extOff, extCap
	// Stage the request payload into the extent (outside any lock; the
	// extent is exclusively ours until the ring entry publishes).
	w := st.arena[extOff : extOff+extCap]
	n := 0
	for _, b := range ca.bufs {
		n += copy(w[n:], b)
	}
	// Publish the submission entry.
	abort := func(err error) {
		st.alloc.free(extOff, extCap)
		ca.fail(err)
	}
	st.mu.Lock()
	for {
		if err := st.err; err != nil {
			st.mu.Unlock()
			abort(err)
			return
		}
		free, ferr := st.slotFreeLocked()
		if ferr != nil {
			st.mu.Unlock()
			st.fail(ferr)
			abort(ferr)
			return
		}
		if free {
			break
		}
		// Ring momentarily full (possible only when the window exceeds
		// half the ring) or the slot's previous generation is still in
		// flight: wait for the server under the op deadline.
		st.mu.Unlock()
		if overdue() {
			abort(fmt.Errorf("memnode: submission ring stalled past op deadline: %w", errShmStall))
			return
		}
		st.stall(st.slotFree)
		st.mu.Lock()
	}
	st.idSrc++
	ca.id = st.idSrc
	st.pending[ca.id&(st.cq.entries-1)] = ca
	st.npend++
	encodeSQE(st.sq.slot(st.sq.local), sqEntry{
		op: ca.op, id: ca.id, regionID: ca.srvID,
		offset: ca.offset, length: ca.length,
		extOff: uint64(extOff), extCap: uint64(extCap),
	})
	st.sq.publish()
	st.mu.Unlock()
	st.ringServer()
}

// wait takes a started call to its completion. Inline completion
// polling (io_uring style): within the yield budget the waiter drains
// the completion ring itself while its call is in flight. Against a
// server that runs while we yield, the submit → yield → server-burst →
// drain cycle resolves the call with no park/wake and no completer hop;
// against one that does not the budget is zero and we park at once. The
// completer persists as the deadline and peer-death watchdog, and as
// the drain of last resort once we park below. A drain completes
// whatever it finds, other callers' calls and their hooks included.
func (st *shmStream) wait(ca *call) ([]byte, error) {
	// The polling reads the mapping; on a poisoned stream fail is on its
	// way to the call, if it has not been there yet.
	if !ca.completed() && st.acquire() == nil {
		var scratch [40]shmDone
		st.inline.spin(func() bool {
			if ca.completed() || st.poisoned.Load() {
				return true
			}
			// TryLock: when the lock is contended someone else is already
			// draining — go on to the next yield so they get the CPU.
			if st.cqReady() && st.mu.TryLock() {
				if _, err := st.drainLocked(scratch[:0]); err != nil {
					st.fail(err)
				}
				return ca.completed()
			}
			return false
		})
		// Parking: give the call a real deadline first (under st.mu — the
		// completer's overdue scan reads it there) so a wedged server
		// still times the op out. Inline-completed calls never reach this
		// and never pay the wall-clock read.
		if !ca.completed() && ca.deadline.IsZero() {
			st.mu.Lock()
			ca.deadline = st.c.deadline()
			st.mu.Unlock()
		}
		st.release()
	}
	ca.wait()
	return ca.body, ca.err
}

// slotFreeLocked reports whether the next request can be published: the
// submission ring has room and the pending slot of the next id is not
// still held by its previous generation. st.mu is held.
func (st *shmStream) slotFreeLocked() (bool, error) {
	full, err := st.sq.full()
	if err != nil {
		return false, err
	}
	return !full && st.pending[(st.idSrc+1)&(st.cq.entries-1)] == nil, nil
}

// slotFree is slotFreeLocked for a waiter that does not hold st.mu. A
// dead stream or a corrupt ring reads as "stop waiting": the submitter
// finds the error under the lock.
func (st *shmStream) slotFree() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return true
	}
	free, err := st.slotFreeLocked()
	return free || err != nil
}

// shmStallSleep is how long either side sleeps per round of
// backpressure once yielding has stopped paying. Nothing signals "arena
// extent freed" or "ring slot freed", so this is a timed poll, bounded
// by the op deadline on the client and by shmBellTimeout on the server.
const shmStallSleep = 200 * time.Microsecond

// stall waits out one round of backpressure — arena or ring space that
// the server, or a local drain of its completions, has to free first.
// It yields within the submitters' budget and reports true when freed
// came true meanwhile. Past the budget it makes sure the server is not
// asleep on work already published, sleeps, and reports false.
func (st *shmStream) stall(freed func() bool) bool {
	if st.inline.spin(freed) {
		return true
	}
	st.ringServer()
	time.Sleep(shmStallSleep) //magevet:ok shm backpressure: timed poll bounded by the op deadline
	return false
}

// ringServer writes the server's doorbell byte, but only when the
// server announced it is parking; a busy server sees the published
// index on its next poll. The write is bounded so that a server which
// never drains its socket poisons the stream.
func (st *shmStream) ringServer() {
	if !shmShouldWake(st.srvSleep) {
		return
	}
	if dl, ok := st.bellDl.due(st.c.opts.IOTimeout); ok {
		_ = st.conn.SetWriteDeadline(dl) // a failed set surfaces on the write below
	}
	st.c.shmWaits.doorbells.Add(1)
	if _, err := st.conn.Write(shmBell); err != nil {
		st.fail(err)
	}
}

// errShmStall marks arena/ring backpressure that outlived an op
// deadline; it is retryable (the op may succeed after reconnect or
// once in-flight load drains).
var errShmStall = errors.New("shm transport stalled")

// completer drains the completion ring, yielding within its budget
// between bursts and then parking on the doorbell socket — where peer
// death (EOF) and per-op timeouts (a read-deadline tick, then a scan of
// the pending calls' deadlines) are detected, mirroring the TCP reader's
// semantics.
func (st *shmStream) completer() {
	defer st.release()
	var db [1]byte
	for {
		if st.poisoned.Load() {
			return
		}
		n, err := st.consumeCompletions(st.batch)
		if err != nil {
			st.fail(err)
			return
		}
		if n > 0 {
			continue
		}
		if st.idle.spin(st.cqReady) {
			continue
		}
		shmAnnounceSleep(st.cliSleep)
		if st.cqReady() {
			shmCancelSleep(st.cliSleep)
			continue
		}
		// Park with a deadline tick so calls against a wedged (but not
		// dead) server still time out: on each tick, overdue pending
		// calls poison the stream; an idle tick just re-parks. The tick
		// comes between IOTimeout/2 and IOTimeout after the park.
		if dl, ok := st.parkDl.due(st.c.opts.IOTimeout); ok {
			_ = st.conn.SetReadDeadline(dl) // a failed set surfaces on the read below
		}
		if _, rerr := st.conn.Read(db[:]); rerr != nil {
			var ne net.Error
			if errors.As(rerr, &ne) && ne.Timeout() && !st.anyOverdue(time.Now()) { //magevet:ok per-op deadline check against wall clock
				shmCancelSleep(st.cliSleep)
				continue
			}
			st.fail(rerr)
			return
		}
		shmCancelSleep(st.cliSleep)
	}
}

// anyOverdue reports whether any pending call's deadline has passed. A
// zero deadline means the submitter is still inline-polling (it stamps
// a real deadline before parking) — such a call is never overdue; the
// submitter's own bounded poll loop is its progress guarantee.
func (st *shmStream) anyOverdue(now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ca := range st.pending {
		if ca != nil && !ca.deadline.IsZero() && now.After(ca.deadline) {
			return true
		}
	}
	return false
}

// cqReady is the lock-free pre-check for completion-ring progress:
// cqSeen mirrors the consumer index (republished under mu after each
// drain), so a poller can test "anything new?" with two atomic loads
// and no lock. A hostile producer index still says "ready" — the locked
// drain is where it is validated and poisons.
func (st *shmStream) cqReady() bool {
	return atomic.LoadUint64(st.cq.peer) != st.cqSeen.Load()
}

// consumeCompletions validates and resolves every available completion
// entry into the caller's scratch. The pending table is updated under
// one lock acquisition per burst; arena copies and call completion
// happen outside the lock. Safe to call from any goroutine — the
// completer and inline-polling submitters race to drain, whoever gets
// the lock first wins the burst. A non-nil error means hostile ring
// state — the caller poisons the stream, which also fails whatever this
// burst had not yet resolved.
func (st *shmStream) consumeCompletions(scratch []shmDone) (int, error) {
	st.mu.Lock()
	return st.drainLocked(scratch)
}

// drainLocked does the drain with st.mu held and releases it. Pollers
// enter via TryLock (exec's inline loop), the completer via Lock.
func (st *shmStream) drainLocked(scratch []shmDone) (int, error) {
	if st.err != nil {
		st.mu.Unlock()
		return 0, nil // already poisoned; the caller observes it elsewhere
	}
	avail, err := st.cq.available()
	if err != nil || avail == 0 {
		st.mu.Unlock()
		return 0, err
	}
	batch := scratch[:0]
	var herr error
	for i := uint64(0); i < avail; i++ {
		e := decodeCQE(st.cq.slot(st.cq.local))
		slot := e.id & (st.cq.entries - 1)
		ca := st.pending[slot]
		if ca == nil || ca.id != e.id {
			herr = fmt.Errorf("shm: completion for unknown request id %d", e.id)
			break
		}
		if e.length < 0 || e.length > ca.extCap {
			herr = fmt.Errorf("shm: completion length %d exceeds extent cap %d", e.length, ca.extCap)
			break
		}
		if e.status == statusOK && ca.dst != nil && e.length != ca.dstLen {
			herr = fmt.Errorf("shm: readv completion of %d bytes for %d bytes of buffers", e.length, ca.dstLen)
			break
		}
		st.pending[slot] = nil
		st.npend--
		st.cq.advanceLocal()
		batch = append(batch, shmDone{ca: ca, e: e})
	}
	st.cq.commit() // one shared store per burst, not one per entry
	st.cqSeen.Store(st.cq.local)
	st.mu.Unlock()
	// Resolve the burst even when it ended in poison: these calls were
	// validly completed before the corruption point.
	for _, d := range batch {
		st.finish(d.ca, d.e)
	}
	return len(batch), herr
}

// finish resolves one completed call. Runs on the completer goroutine,
// which holds a mapping reference.
//
// Single READs resolve zero-copy: the body is the call's own arena
// extent (capacity-clamped to it), and the extent transfers to the
// caller — PutBuf recognizes arena-backed buffers and routes them back
// to this allocator, releasing the mapping reference the body holds.
// Reading far memory therefore costs exactly one copy (region store →
// arena), the same count as local RDMA. The flip side is shared-mapping
// semantics: the server (or a successful remote write racing the read)
// can still scribble on those bytes until PutBuf, exactly as one-sided
// RDMA into a registered buffer could.
//
// A READV's pages are copied from the extent into the call's own
// destinations (the drain checked that the lengths agree); the call has
// left the pending table, so nobody else completes it meanwhile.
// Everything else (REGISTER ids, STAT blobs, error messages) copies into
// pooled buffers. Both free the extent immediately.
func (st *shmStream) finish(ca *call, e cqEntry) {
	ext := st.arena[ca.extOff : ca.extOff+e.length]
	switch e.status {
	case statusOK:
		if e.length > 0 && ca.op == opRead {
			st.refs.Add(1) // the body keeps the mapping alive until PutBuf
			ca.body = st.arena[ca.extOff : ca.extOff+e.length : ca.extOff+ca.extCap]
			ca.complete()
			return
		}
		if ca.dst != nil {
			for _, d := range ca.dst {
				ext = ext[copy(d, ext):]
			}
		} else if e.length > 0 {
			body := getBuf(int(e.length))
			copy(body, ext)
			ca.body = body
		}
	default:
		ca.err = statusError(e.status, ext)
	}
	st.alloc.free(ca.extOff, ca.extCap)
	ca.complete()
}

// shmArenaReg tracks live client arenas so PutBuf can route
// arena-backed read bodies home. Writers (stream setup/teardown, rare)
// serialize on mu and republish an immutable snapshot; the PutBuf read
// path is one atomic load of the snapshot, nothing else.
var shmArenaReg struct {
	mu   sync.Mutex
	list []*shmStream // writer-side master copy
	snap atomic.Value // []*shmStream: immutable snapshot for readers
}

func shmRegisterArena(st *shmStream) {
	shmArenaReg.mu.Lock()
	defer shmArenaReg.mu.Unlock()
	shmArenaReg.list = append(shmArenaReg.list, st)
	shmArenaReg.snap.Store(append([]*shmStream(nil), shmArenaReg.list...))
}

// teardown unregisters the stream and unmaps its segment; called
// exactly once, by the holder of the last mapping reference.
func (st *shmStream) teardown() {
	shmArenaReg.mu.Lock()
	for i, s := range shmArenaReg.list {
		if s == st {
			shmArenaReg.list = append(shmArenaReg.list[:i], shmArenaReg.list[i+1:]...)
			break
		}
	}
	shmArenaReg.snap.Store(append([]*shmStream(nil), shmArenaReg.list...))
	shmArenaReg.mu.Unlock()
	shmUnmap(st.seg)
}

// shmReleaseBuf frees b back to its arena when it is an arena-backed
// read body, reporting whether it was one. The buffer must be the exact
// slice a Read returned (same base pointer and capacity), mirroring the
// pooled-buffer contract. A snapshot entry cannot be unmapped while we
// inspect it: the body's own mapping reference (taken at completion,
// dropped below) keeps its stream alive, and streams the buffer does
// not belong to are merely address-compared, never dereferenced.
func shmReleaseBuf(b []byte) bool {
	snap, _ := shmArenaReg.snap.Load().([]*shmStream)
	if len(snap) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for _, st := range snap {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(st.arena)))
		if p >= base && p-base < uintptr(len(st.arena)) {
			st.alloc.free(int64(p-base), int64(cap(b)))
			st.release()
			return true
		}
	}
	return false
}
