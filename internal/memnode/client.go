package memnode

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"        //magevet:ok memnode is a real TCP client, not virtual-time simulation code
	"sync/atomic" //magevet:ok lock-free robustness counters keep Metrics off the data path
	"time"
)

// Options tunes the client's robustness behavior: connection and per-op
// deadlines, the reconnect/retry policy, and the pipelining window. It
// mirrors the DES retry layer (core.RetryPolicy) in the real world.
type Options struct {
	// DialTimeout bounds each (re)connection attempt.
	DialTimeout time.Duration
	// IOTimeout bounds each request round trip (write + response read).
	IOTimeout time.Duration
	// MaxAttempts is how many times one op is tried across reconnects
	// before the error is surfaced. Page ops (READ/WRITE/REGISTER) are
	// idempotent, so retry-after-reconnect is always safe.
	MaxAttempts int
	// BaseBackoff doubles per consecutive failure up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Window bounds the operations one client keeps in flight on its
	// multiplexed connection (default 128, at most 4,088). Ops beyond the
	// window queue at the client instead of on the wire.
	Window int
	// Transport selects the data plane. TransportAuto (the default)
	// takes the file link (DESIGN.md §13) whenever the server advertises
	// it and the platform supports it: page verbs on a region whose file
	// the client attached become preads and pwrites of that file, and
	// everything else rides TCP, as do the page verbs of a region that
	// cannot be attached. TransportTCP pins TCP; TransportShm requires the
	// server to offer the file link and fails ops when it does not.
	Transport int
}

// Transport values for Options.Transport.
const (
	TransportAuto = iota
	TransportTCP
	TransportShm
)

// DefaultOptions returns the production defaults: patient enough to ride
// out a memnode restart, bounded enough to surface a dead node.
func DefaultOptions() Options {
	return Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   5 * time.Second,
		MaxAttempts: 8,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  time.Second,
		Window:      128,
	}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.DialTimeout <= 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = d.IOTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = d.BaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = d.MaxBackoff
	}
	if o.Window <= 0 {
		o.Window = d.Window
	}
	o.Window = min(o.Window, maxWindow) // so that a call table always has a free slot
	if o.Transport != TransportTCP && o.Transport != TransportShm {
		o.Transport = TransportAuto
	}
}

// ClientStats counts the client's robustness events. All zero on a
// healthy connection.
type ClientStats struct {
	// Retries counts op attempts beyond the first.
	Retries uint64
	// Reconnects counts successful re-dials after the initial connect.
	Reconnects uint64
	// RegionReplays counts REGISTER replays after a server lost a region
	// (i.e. restarted).
	RegionReplays uint64
	// Timeouts counts stream failures caused by an expired deadline.
	Timeouts uint64
	// ShmConnects counts connections negotiated as the file link (the
	// server offered it).
	ShmConnects uint64
	// ShmFallbacks counts region attaches that failed (dial, refusal,
	// or a file that is not a sealed region file of the right size),
	// each leaving a region's page verbs on TCP.
	ShmFallbacks uint64

	// Per-verb op/byte counters of successfully completed operations,
	// counted at the public API (one ReadV is one ReadV op regardless of
	// transport or retries). Bytes are payload bytes
	// moved: response body for reads, request payload for writes, zero
	// for STATS. They make an application's fault/evict balance
	// observable at the wire: a pager's fault path shows up as
	// Read/ReadV, its write-behind evictor as WriteV.
	Read   VerbStats
	Write  VerbStats
	ReadV  VerbStats
	WriteV VerbStats
	Stats  VerbStats
}

// VerbStats counts one wire verb's completed operations and payload
// bytes.
type VerbStats struct {
	Ops   uint64
	Bytes uint64
}

// region is the client-side record of a region this client registered:
// the stable handle the caller holds (the region's original server ID)
// maps to the server's current — restart-volatile — ID plus the size
// needed to replay the REGISTER after a restart.
type region struct {
	size  int64
	srvID uint64
}

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("memnode: client closed")

// serverError is a terminal refusal: a statusErr response — the server
// understood the request and rejected it — or a request this client
// refused to send because its shape is one no node accepts (a bad
// length, an empty or mismatched batch, a batch over MaxIO). Either way
// retrying cannot help, another node would say the same, and the
// connection remains healthy.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "memnode: " + e.msg }

// refusef is a request the client's own checks turn away.
func refusef(format string, args ...any) error {
	return &serverError{msg: fmt.Sprintf(format, args...)}
}

// errRegionLost is the in-client signal that the server answered
// statusErrRegion.
var errRegionLost = errors.New("memnode: server lost region")

// IsTerminal reports whether err is a terminal rejection: the request
// was understood and refused (bad bounds, bad opcode, capacity) over a
// healthy connection, or refused by this client before it was sent.
// Layered clients (memcluster) use this to
// distinguish "this op can never succeed" from "this node is in
// trouble" — only the latter justifies failover and marking the node
// down.
func IsTerminal(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}

// call is one operation attempt as the stream layer sees it: the wire
// fields, the payload vectors to writev after the header, and the
// completion state the reader fills in. do() arms one pooled struct per
// attempt from the op's prototype.
type call struct {
	op     byte
	handle uint64 // caller's stable region handle (do translates per attempt)
	srvID  uint64 // server's current region ID for this attempt
	offset int64
	length int64       // wire length field (payload bytes, read size, or region size)
	bufs   net.Buffers // request payload vectors (nil for READ/STAT/REGISTER)

	// A batch's shape: the region offset of each page and the page itself,
	// the caller's — READV's destinations (dst, dstLen bytes in all) or
	// WRITEV's sources (src, length bytes in all). A READV of one page goes
	// out as a READ that keeps its one destination: its body lands there,
	// as a READV's does, and no table is built for it. The destinations are
	// lent to the wire for as long as an attempt is in flight: only the
	// goroutine that took the call out of its link's call table writes
	// into them, and it completes the call only when it has stopped, so
	// a retry never shares them with a reader of the stream that failed.
	offsets []int64
	dst     [][]byte
	src     [][]byte
	dstLen  int64

	// owner is the asynchronous op behind an attempt its starter put on
	// the wire, nil on every other: whoever completes the attempt tells it
	// (see asyncOp).
	owner *asyncOp

	id       uint64
	deadline time.Time
	body     []byte
	err      error

	// Completion gate: fin goes finPending → (finWaiting →) finDone once
	// per attempt. A submitter that found its completion while polling
	// never leaves finPending on its side; one that gives up registers
	// as finWaiting and blocks on park until complete hands it a token.
	// complete's swap to finDone is its last access to the struct unless
	// it swapped out finWaiting — and then the waiter is blocked on park
	// until the send, which is complete's last access to anything of the
	// call's. So finDone read by a poller, or a token received by a
	// waiter, each mean the completing side holds no reference any more.
	// A raw atomic field (not atomic.Uint32) because arm copies the
	// prototype over the struct — typed atomics embed noCopy and would
	// make that copy a vet violation.
	fin uint32
	// sent is the sending side's release, the other half of do()'s
	// permission to recycle the struct: the TCP writer stores 1 once its
	// writev has returned, after which it reads neither the struct nor
	// the payload in desc again; for a verb the file link runs on the
	// caller's goroutine, that goroutine stores it. A call failed while
	// its writer may still be draining the old send queue never gets it,
	// and the struct is left to the collector. Atomic for the same reason
	// as fin.
	sent uint32
	// park carries the wake-up token of a registered waiter. Capacity
	// one, made on the first park and kept for the life of the pooled
	// struct (arm carries it across ops), so a waiter allocates nothing.
	// A token is sent only when a waiter registered and that waiter
	// always receives it, so none is ever left behind for the next op.
	park chan struct{}
	// desc is a batch's descriptor table and vec the payload vector that
	// starts with it (and, for WRITEV, goes on with the pages), both built
	// per attempt in storage that stays with the pooled struct like park
	// does; so does iovs, the table as the file link parses it.
	desc []byte
	vec  net.Buffers
	iovs []iovec
}

// arm readies a pooled struct for one attempt of the op proto describes.
// The gate and the sending side's release start afresh: a prototype the
// file link ran itself (see doPages) comes with both set.
func (ca *call) arm(proto *call, srvID uint64) {
	park, desc, vec, iovs := ca.park, ca.desc, ca.vec, ca.iovs
	*ca = *proto
	ca.park, ca.desc, ca.vec, ca.iovs, ca.srvID = park, desc, vec, iovs, srvID
	ca.fin, ca.sent = finPending, 0
	switch {
	case ca.dst != nil && ca.op == opReadV: // a READ's one destination needs no table
		ca.desc = appendDescs(ca.desc, ca.offsets, ca.dst)
		ca.vec = append(ca.vec[:0], ca.desc)
		ca.bufs, ca.length = ca.vec, int64(len(ca.desc))
	case ca.src != nil:
		ca.desc = appendDescs(ca.desc, ca.offsets, ca.src)
		ca.vec = append(append(ca.vec[:0], ca.desc), ca.src...)
		ca.bufs, ca.length = ca.vec, int64(len(ca.desc))+ca.length
	}
}

// Completion gate states.
const (
	finPending = 0 // in flight, nobody parked on it
	finWaiting = 1 // in flight, the submitter is blocked on park
	finDone    = 2 // body/err published; complete's last store to the struct
)

// complete resolves the call: at most once per attempt (a second
// completion is a demux bug and panics, exactly as double-closing the
// old completion channel did), waking the parked waiter if there is
// one. Swap here and compare-and-swap in wait are sequentially
// consistent on one word, so either complete observes the waiter or
// wait observes finDone — a lost wakeup is impossible. The attempt of
// an asynchronous op then tells its owner, which is read out of the
// struct before the swap gives the struct away.
func (ca *call) complete() {
	p, err := ca.owner, ca.err
	switch atomic.SwapUint32(&ca.fin, finDone) {
	case finDone:
		panic("memnode: double completion of one request")
	case finWaiting:
		ca.park <- struct{}{} // never blocks: capacity one, one token per registration
	}
	if p != nil {
		p.attemptOver(err)
	}
}

// completed reports whether the call has been resolved. A poller uses
// it as permission to return the call to its pool.
func (ca *call) completed() bool { return atomic.LoadUint32(&ca.fin) == finDone }

// wait blocks until the call completes.
func (ca *call) wait() {
	if ca.completed() {
		return
	}
	if ca.park == nil {
		ca.park = make(chan struct{}, 1)
	}
	if atomic.CompareAndSwapUint32(&ca.fin, finPending, finWaiting) {
		<-ca.park
	}
}

// resetGate rearms the completion gate for a fresh attempt. Callers
// guarantee no stale completer still references this struct (do() arms a
// struct only after both sides of its last attempt let go of it).
func (ca *call) resetGate() { atomic.StoreUint32(&ca.fin, finPending) }

// markSent is the sending side letting go of the struct (see sent).
func (ca *call) markSent() { atomic.StoreUint32(&ca.sent, 1) }

// retire is the waiter's side letting go of a finished attempt: the
// struct goes back to the pool when the sending side has let go of it
// too, which on a healthy stream is every time. It returns the region
// ID the attempt used, which a REGISTER replay wants to know.
func (ca *call) retire() uint64 {
	srvID := ca.srvID
	if atomic.LoadUint32(&ca.sent) == 1 {
		callPool.Put(ca)
	}
	return srvID
}

// roundTrip runs one request on st and blocks until its response arrives or
// the link dies: start, then wait.
func roundTrip(st *stream, ca *call) ([]byte, error) {
	st.start(ca)
	return st.wait(ca)
}

// Call tables are twice the window and some, rounded up to a power of
// two, so that the ID allocator always finds a free slot.
const (
	minTable  = 64
	maxTable  = 8192
	maxWindow = maxTable/2 - 8 // the cap on Options.Window
)

// tableSize is the slot count of a link's call table for a window.
func tableSize(window int) uint64 {
	want := uint64(2 * (window + 8))
	n := uint64(minTable)
	for n < want && n < maxTable {
		n <<= 1
	}
	return n
}

// calls is the table half of a link, embedded by the stream: the calls
// it holds from start to answer, its poison and its deadline watchdog. A
// call is filed in slot id & (len(slots)-1); the ID allocator skips a
// held slot, so no ID is reused while its call is held, and the Window
// cap leaves every table free slots.
//
// The watchdog looks every IOTimeout/2, or at the earliest deadline if
// sooner, for a held call past its deadline (a zero one is never late)
// and poisons the link with errOverdue: closing its socket ends a writev
// or body read the peer left hanging, so no socket carries a deadline
// past its handshake.
type calls struct {
	mu      sync.Mutex // the link's lock: the table and the poison
	slots   []*call
	idSrc   uint64 // the last ID issued
	landing *call  // the call whose body the TCP reader is landing: out of the table, still timed
	err     error  // the poison; nil while the link is alive
	dog     *time.Timer
}

// errOverdue poisons a link that held a call past its deadline. It wraps
// os.ErrDeadlineExceeded, so that it reads as a timeout (Timeouts).
var errOverdue = fmt.Errorf("memnode: request outlived its deadline: %w", os.ErrDeadlineExceeded)

// open sizes the table for window and starts l's watchdog.
func (t *calls) open(l *stream, window int, every time.Duration) {
	t.slots = make([]*call, tableSize(window))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dog = time.AfterFunc(every, func() { t.tick(l, every) }) //magevet:ok real transport: the link's deadline watchdog
}

// tick is one look of the watchdog.
func (t *calls) tick(l *stream, every time.Duration) {
	now := wallNow()
	late, earliest := t.overdue(now)
	if late {
		l.fail(errOverdue)
		return
	}
	if !earliest.IsZero() {
		every = min(every, earliest.Sub(now))
	}
	t.mu.Lock()
	if t.err == nil {
		t.dog.Reset(every)
	}
	t.mu.Unlock()
}

// overdue reports whether a call the table holds, or the one landing, is
// past its deadline at now, and otherwise the earliest deadline there is
// (zero: none).
func (t *calls) overdue(now time.Time) (late bool, earliest time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	look := func(ca *call) {
		switch {
		case ca == nil || ca.deadline.IsZero():
		case !now.Before(ca.deadline):
			late = true
		case earliest.IsZero() || ca.deadline.Before(earliest):
			earliest = ca.deadline
		}
	}
	look(t.landing)
	for _, ca := range t.slots {
		look(ca)
	}
	return late, earliest
}

// enterLocked files ca under a fresh ID, or returns the poison.
func (t *calls) enterLocked(ca *call) error {
	if t.err != nil {
		return t.err
	}
	mask := uint64(len(t.slots) - 1)
	for t.idSrc++; t.slots[t.idSrc&mask] != nil; t.idSrc++ {
	}
	ca.id = t.idSrc
	t.slots[ca.id&mask] = ca
	return nil
}

// lookupLocked returns the call held under id, nil when there is none.
func (t *calls) lookupLocked(id uint64) *call {
	ca := t.slots[id&uint64(len(t.slots)-1)]
	if ca == nil || ca.id != id {
		return nil
	}
	return ca
}

// dropLocked takes ca, which lookupLocked returned, out of the table.
func (t *calls) dropLocked(ca *call) { t.slots[ca.id&uint64(len(t.slots)-1)] = nil }

// poison marks the link dead of err and stops its watchdog. The first
// poison hands back the calls the table held, for the link to fail, and
// reports true; a later one changes nothing.
func (t *calls) poison(err error) (held []*call, first bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return nil, false
	}
	t.err = err
	if t.dog != nil {
		t.dog.Stop()
	}
	for i, ca := range t.slots {
		if ca != nil {
			held, t.slots[i] = append(held, ca), nil
		}
	}
	return held, true
}

// alive reports whether the link has not been poisoned.
func (t *calls) alive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err == nil
}

// failHeld is the end of a link's fail: a link that died of an
// expired deadline is counted, and every call it held completes with
// the link's error.
func (c *Client) failHeld(err error, held []*call) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.timeouts.Add(1)
	}
	for _, ca := range held {
		ca.fail(err)
	}
}

func (ca *call) fail(err error) {
	ca.err = err
	ca.complete()
}

// stream is one live connection generation, the link the retry,
// reconnect and replay stack above it runs ops on: a writer goroutine
// (draining sendq, one writev per batch of frames), a reader goroutine
// (matching response frames to the calls held by ID) and, when the
// server offered it, the file link's table of attached region files
// (shm_client.go). Any IO or protocol error poisons the whole stream:
// every call it holds fails at once, its files are dropped, and the
// client re-dials lazily.
//
// An op is started by its caller and completed by the link. start does
// on the caller's goroutine everything short of waiting — the call is
// run on a region file, or entered in the call table and queued for the
// writer — and from then on exactly one completion of the call follows:
// from start itself (a file link's verb, or a link that is dead), the
// reader, or fail. None of them holds a lock of the link's while it
// completes a call, because completing the attempt of a started READV
// runs its caller's hook.
type stream struct {
	calls
	c     *Client
	conn  net.Conn
	files *fileLink // nil on a plain TCP stream

	sendq chan *call
	dead  chan struct{}
}

func newStream(c *Client, conn net.Conn, files *fileLink) *stream {
	s := &stream{
		c:     c,
		conn:  conn,
		files: files,
		sendq: make(chan *call, c.opts.Window+8),
		dead:  make(chan struct{}),
	}
	s.open(s, c.opts.Window, c.opts.IOTimeout/2)
	go s.writeLoop() //magevet:ok real TCP client: one writer goroutine per pipelined connection
	go s.readLoop()  //magevet:ok real TCP client: one reader/demux goroutine per pipelined connection
	return s
}

// fail poisons the stream exactly once: its files are dropped, the
// connection is closed, and every call it holds completes with err.
// Later submissions are refused at the table.
func (s *stream) fail(err error) {
	held, first := s.poison(err)
	if !first {
		return
	}
	if s.files != nil {
		s.files.close()
	}
	close(s.dead)
	_ = s.conn.Close() // the stream is already poisoned; nothing to salvage
	s.c.failHeld(err, held)
}

// start runs ca on a region file when the file link has its region, or
// enters it in the call table and queues it for the writer. Safe for any
// number of concurrent callers; that concurrency is exactly the
// pipeline. The writer goroutine, not the caller, does the send: two
// callers that start back to back go out in one writev (see writeLoop).
func (s *stream) start(ca *call) {
	ca.body, ca.err = nil, nil
	ca.resetGate()
	if s.files != nil && s.runFile(ca) {
		return
	}
	if ca.deadline.IsZero() {
		ca.deadline = s.c.deadline()
	}
	s.mu.Lock()
	err := s.enterLocked(ca)
	s.mu.Unlock()
	if err != nil {
		ca.markSent() // no writer will ever see it
		ca.fail(err)
		return
	}
	select {
	case s.sendq <- ca:
	case <-s.dead:
		// fail() already completed ca (the table held it).
	}
}

func (s *stream) wait(ca *call) ([]byte, error) {
	ca.wait()
	return ca.body, ca.err
}

// writeLoop is the stream's writer: it takes a call from sendq, drains
// what else is queued (up to writeBatch) in two rounds with one yield
// between them — on a busy pipeline the other submitters are runnable
// right now, and letting them enqueue turns N writevs into one; on an
// idle connection the yield costs nanoseconds — and writes every
// request's header and payload in one writev, after which it reads
// neither the call nor its payload again. A failed writev poisons the
// stream.
func (s *stream) writeLoop() {
	var hdrs [writeBatch][v2ReqHdrLen]byte
	// WriteTo consumes the slice it is called on, capacity and all, so
	// each batch's vector is cut afresh from vecs; iov is declared once,
	// since WriteTo's pointer receiver puts it on the heap.
	vecs := make(net.Buffers, 0, 2*writeBatch)
	var iov net.Buffers
	batch := make([]*call, 0, writeBatch)
	for {
		select {
		case ca := <-s.sendq:
			batch = append(batch[:0], ca)
		case <-s.dead:
			return
		}
		for round := 0; round < 2 && len(batch) < writeBatch; round++ {
			// This goroutine is sendq's only receiver, so a non-zero len()
			// guarantees the receive below cannot block — a plain recv is
			// ~3x cheaper than a select-with-default here.
			for len(batch) < writeBatch && len(s.sendq) > 0 {
				batch = append(batch, <-s.sendq)
			}
			if round == 0 && len(batch) < writeBatch {
				runtime.Gosched() // micro-batching yield on the writer goroutine
			}
		}
		iov = vecs[:0]
		for i, ca := range batch {
			hdr := &hdrs[i]
			hdr[0] = ca.op
			binary.LittleEndian.PutUint64(hdr[1:], ca.id)
			binary.LittleEndian.PutUint64(hdr[9:], ca.srvID)
			binary.LittleEndian.PutUint64(hdr[17:], uint64(ca.offset))
			binary.LittleEndian.PutUint64(hdr[25:], uint64(ca.length))
			iov = append(append(iov, hdr[:]), ca.bufs...)
		}
		vecs = iov // keeps what a large batch grew
		if _, err := iov.WriteTo(s.conn); err != nil {
			s.fail(err)
			return
		}
		for _, ca := range batch {
			ca.markSent()
		}
	}
}

// readLoop demultiplexes response frames back to the calls held by
// request ID. Frames are read through a bufio layer (small responses
// that arrive together cost one syscall, not two each), and with no
// deadline: a peer that leaves a call unanswered is the watchdog's.
//
// A response's call is looked up, and leaves the table, before its body
// is read: a READV body goes straight to the buffers the call names, and
// from that moment this goroutine alone completes the call — a fail()
// from the writer's side can no longer complete it, and have it retried
// into the same buffers, while the body is still landing.
func (s *stream) readLoop() {
	br := bufio.NewReaderSize(s.conn, 64<<10)
	var rhdr [v2RespHdrLen]byte
	for {
		if _, err := io.ReadFull(br, rhdr[:]); err != nil {
			s.fail(err)
			return
		}
		status := rhdr[0]
		id := binary.LittleEndian.Uint64(rhdr[1:9])
		n := binary.LittleEndian.Uint64(rhdr[9:17])
		if n > maxV2Payload {
			s.fail(fmt.Errorf("memnode: oversized response %d", n))
			return
		}
		s.mu.Lock()
		ca := s.lookupLocked(id)
		if ca != nil {
			s.dropLocked(ca)
			s.landing = ca
		}
		s.mu.Unlock()
		if ca == nil {
			// Unknown or duplicate ID: the stream is desynchronized and
			// nothing on it can be trusted.
			s.fail(fmt.Errorf("memnode: response for unknown request id %d", id))
			return
		}
		err := readBody(br, ca, status, n)
		s.mu.Lock()
		s.landing = nil
		if err != nil && s.err != nil {
			err = s.err // the body read failed because the watchdog or Close ended it
		}
		s.mu.Unlock()
		if err != nil {
			ca.err = err
		}
		ca.complete()
		if err != nil {
			s.fail(err)
			return
		}
	}
}

// readBody reads the n payload bytes of ca's response and files them on
// the call. A READV's pages are scattered into the call's destinations
// as they come out of the reader — one copy out of its buffer, none when
// a read is large enough to bypass it. An error is the stream's: a
// failed read, or a READV answered with another length than its
// destinations hold, after which nothing that follows can be trusted.
func readBody(br *bufio.Reader, ca *call, status byte, n uint64) error {
	if status == statusOK && ca.dst != nil {
		if n != uint64(ca.dstLen) {
			return fmt.Errorf("memnode: readv response of %d bytes for %d bytes of buffers", n, ca.dstLen)
		}
		for _, d := range ca.dst {
			if _, err := io.ReadFull(br, d); err != nil {
				return err
			}
		}
		return nil
	}
	var body []byte
	if n > 0 {
		body = GetBuf(int(n))
		if _, err := io.ReadFull(br, body); err != nil {
			PutBuf(body)
			return err
		}
	}
	if status == statusOK {
		ca.body = body
	} else {
		ca.err = statusError(status, body)
		PutBuf(body)
	}
	return nil
}

// statusError is the error the retry layer acts on for a response whose
// status is not OK: a lost region is replayed, anything else is the
// server's terminal refusal. msg is the response's bytes, not kept.
func statusError(status byte, msg []byte) error {
	if status == statusErrRegion {
		return fmt.Errorf("%w: %s", errRegionLost, msg)
	}
	return &serverError{msg: string(msg)}
}

// Client is one connection to a memory node, hardened for the real
// world and pipelined for throughput: a connection multiplexes up to
// Options.Window concurrent requests by ID, every op has a deadline, a
// broken connection fails all in-flight calls at once and is re-dialed
// with capped exponential backoff, and idempotent ops are retried
// across reconnects — including transparent REGISTER replay when the
// server restarted and lost its regions. All methods are safe for
// concurrent use; issuing many ops concurrently (or starting them with
// StartReadVInto) is how the pipeline fills.
type Client struct {
	addr string
	opts Options

	// mu guards connection lifecycle only; it is never held across
	// network IO, so Close and Metrics stay live behind a stalled op.
	mu      sync.Mutex
	cond    *sync.Cond
	cur     *stream
	raw     net.Conn // eagerly dialed, negotiation deferred to first op
	dialing bool

	closedCh chan struct{} // closed by Close, under mu

	regMu   sync.Mutex // guards the stable-handle region table
	regions map[uint64]*region

	// window is the in-flight semaphore: one slot per operation from
	// submission to completion, across all its retry attempts.
	window chan struct{}

	retries       atomic.Uint64
	reconnects    atomic.Uint64
	regionReplays atomic.Uint64
	timeouts      atomic.Uint64
	shmConnects   atomic.Uint64
	shmFallbacks  atomic.Uint64

	// verbOps/verbBytes index by wire verb (opRead..opProbe) and count
	// completed public-API ops and their payload bytes.
	verbOps   [opProbe + 1]atomic.Uint64
	verbBytes [opProbe + 1]atomic.Uint64
}

// countVerb records one completed op of the given verb moving n payload
// bytes.
func (c *Client) countVerb(op byte, n int64) {
	c.verbOps[op].Add(1)
	c.verbBytes[op].Add(uint64(n))
}

// verbStats snapshots one verb's counters.
func (c *Client) verbStats(op byte) VerbStats {
	return VerbStats{Ops: c.verbOps[op].Load(), Bytes: c.verbBytes[op].Load()}
}

// Dial connects to a memory node with DefaultOptions.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, DefaultOptions())
}

// DialOptions connects with explicit options. The TCP connection is
// established eagerly so configuration errors surface here, not on the
// first op; protocol negotiation happens lazily on first use and is
// retried like any other IO.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts.fillDefaults()
	c := &Client{
		addr:     addr,
		opts:     opts,
		regions:  make(map[uint64]*region),
		window:   make(chan struct{}, opts.Window),
		closedCh: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("memnode: dial: %w", err)
	}
	c.raw = conn
	return c, nil
}

// Close closes the connection. It returns promptly even with ops in
// flight against a stalled server: pending calls fail with ErrClosed
// and their retry loops abort.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.isClosed() {
		c.mu.Unlock()
		return nil
	}
	close(c.closedCh)
	raw, st := c.raw, c.cur
	c.raw, c.cur = nil, nil
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	if raw != nil {
		err = raw.Close()
	}
	if st != nil {
		st.fail(ErrClosed)
	}
	return err
}

// Metrics returns a snapshot of the robustness counters. It never
// touches the data path, so it stays live mid-outage.
func (c *Client) Metrics() ClientStats {
	return ClientStats{
		Retries:       c.retries.Load(),
		Reconnects:    c.reconnects.Load(),
		RegionReplays: c.regionReplays.Load(),
		Timeouts:      c.timeouts.Load(),
		ShmConnects:   c.shmConnects.Load(),
		ShmFallbacks:  c.shmFallbacks.Load(),
		Read:          c.verbStats(opRead),
		Write:         c.verbStats(opWrite),
		ReadV:         c.verbStats(opReadV),
		WriteV:        c.verbStats(opWriteV),
		Stats:         c.verbStats(opProbe),
	}
}

// TransportKind reports the data plane of the current connection
// generation: "shm" (the file link), "tcp-v2" (the pipelined frames,
// wire version 2), or "none" when no connection has been negotiated yet.
func (c *Client) TransportKind() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.cur == nil:
		return "none"
	case c.cur.files != nil:
		return "shm"
	}
	return "tcp-v2"
}

func (c *Client) isClosed() bool {
	select {
	case <-c.closedCh:
		return true
	default:
		return false
	}
}

// deadline is when an attempt started now is overdue.
func (c *Client) deadline() time.Time { return wallNow().Add(c.opts.IOTimeout) }

// wallNow is the client's one read of the host clock.
func wallNow() time.Time {
	return time.Now() //magevet:ok per-op network deadlines on a real client
}

// sleep waits d or until the client closes, reporting whether the wait
// completed.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d) //magevet:ok real-world reconnect backoff on a TCP client
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closedCh:
		return false
	}
}

// backoff returns the capped exponential delay after the attempt-th
// consecutive failure (attempt ≥ 1).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.opts.MaxBackoff {
			return c.opts.MaxBackoff
		}
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	return d
}

// liveLink returns the current link when an op can start on it right
// now, and nil when that would take a dial first (or the client is
// closed).
func (c *Client) liveLink() *stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() || c.cur == nil || !c.cur.alive() {
		return nil
	}
	return c.cur
}

// getStream returns the live stream, dialing and negotiating a new
// connection when the previous one is poisoned. Exactly one goroutine
// dials at a time; the rest wait on the condition variable, so an
// outage costs one connection attempt per backoff interval, not one
// per blocked op.
func (c *Client) getStream() (*stream, error) {
	c.mu.Lock()
	for {
		if c.isClosed() {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.cur != nil && c.cur.alive() {
			st := c.cur
			c.mu.Unlock()
			return st, nil
		}
		if c.dialing {
			c.cond.Wait()
			continue
		}
		c.dialing = true
		conn := c.raw
		c.raw = nil
		c.mu.Unlock()

		fresh := false
		var err error
		if conn == nil {
			conn, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
			if err != nil {
				err = fmt.Errorf("memnode: dial: %w", err)
			}
			fresh = err == nil
		}
		var st *stream
		if err == nil {
			st, err = c.negotiate(conn) // closes conn on error
		}

		c.mu.Lock()
		c.dialing = false
		c.cond.Broadcast()
		if c.isClosed() {
			c.mu.Unlock()
			if st != nil {
				st.fail(ErrClosed)
			} else if err == nil && conn != nil {
				_ = conn.Close() // client is closing; best-effort teardown
			}
			return nil, ErrClosed
		}
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.cur = st
		if fresh {
			c.reconnects.Add(1)
		}
		c.mu.Unlock()
		return st, nil
	}
}

// negotiate opens a fresh connection with the HELLO exchange and makes
// it the file link, with every region this client registered attached,
// when the server's response advertises it and Options.Transport
// allows. On an error the connection is closed; the caller's retry loop
// re-dials unless the error is terminal.
func (c *Client) negotiate(conn net.Conn) (*stream, error) {
	st, err := c.hello(conn)
	if err != nil {
		_ = conn.Close() // the error returned is the one that matters
		return nil, err
	}
	if st.files != nil {
		c.attachAll(st)
	}
	return st, nil
}

func (c *Client) hello(conn net.Conn) (*stream, error) {
	if err := conn.SetDeadline(c.deadline()); err != nil {
		return nil, err
	}
	var hdr [helloReqLen]byte
	hdr[0] = opHello
	binary.LittleEndian.PutUint64(hdr[1:], helloMagic)
	binary.LittleEndian.PutUint64(hdr[9:], protoV2)
	if _, err := conn.Write(hdr[:]); err != nil {
		return nil, err
	}
	var rhdr [helloRespHdrLen]byte
	if _, err := io.ReadFull(conn, rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(rhdr[1:])
	if n > 4096 {
		return nil, fmt.Errorf("memnode: oversized hello response %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	if rhdr[0] != statusOK {
		// The server does not speak this client's protocol, and no retry
		// changes what either side speaks.
		return nil, &serverError{msg: "hello refused: " + string(body)}
	}
	if len(body) < helloRespLen ||
		binary.LittleEndian.Uint64(body) != helloMagic ||
		binary.LittleEndian.Uint64(body[8:]) < protoV2 {
		return nil, errors.New("memnode: malformed hello response")
	}
	// The link's watchdog times calls from here; a failed clear surfaces
	// as a spurious timeout the retry path absorbs.
	_ = conn.SetDeadline(time.Time{})
	var files *fileLink
	if c.opts.Transport != TransportTCP {
		ext := parseHelloExt(body)
		switch {
		case ext.shm && ShmSupported:
			files = &fileLink{ext: ext}
			c.shmConnects.Add(1)
		case c.opts.Transport == TransportShm && !ShmSupported:
			return nil, errShmUnsupported
		case c.opts.Transport == TransportShm:
			return nil, errors.New("memnode: shm transport required: server does not offer it")
		}
	}
	return newStream(c, conn, files), nil
}

// translate maps a caller's stable handle to the server's current
// region ID (they diverge after a restart replay).
func (c *Client) translate(handle uint64) uint64 {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if reg, ok := c.regions[handle]; ok {
		return reg.srvID
	}
	return handle
}

func (c *Client) canReplay(handle uint64) bool {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	_, ok := c.regions[handle]
	return ok
}

// replayRegion re-registers a handle's region on a restarted server.
// The region's content is gone with the old server; the paging systems
// tolerate that the same way they tolerate a fresh remote node — pages
// fault back in from the new (zeroed) backing. regMu serializes
// replays so a storm of concurrent region-lost ops registers the
// region once, not once per op.
func (c *Client) replayRegion(st *stream, handle, usedSrvID uint64) error {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	reg, ok := c.regions[handle]
	if !ok {
		return fmt.Errorf("memnode: unknown region handle %d", handle)
	}
	if reg.srvID != usedSrvID {
		return nil // a concurrent op already replayed this region
	}
	body, err := roundTrip(st, &call{op: opRegister, length: reg.size})
	if err != nil {
		return err
	}
	id, err := registeredID(body)
	if err != nil {
		return err
	}
	reg.srvID = id
	c.regionReplays.Add(1)
	c.attach(st, id, reg.size)
	return nil
}

// registeredID decodes a REGISTER response and recycles it.
func registeredID(body []byte) (uint64, error) {
	if len(body) != registerRespLen {
		return 0, fmt.Errorf("memnode: short register response (%d bytes)", len(body))
	}
	id := binary.LittleEndian.Uint64(body)
	PutBuf(body)
	return id, nil
}

// do runs one idempotent op with the full robustness stack re-layered
// on top of the pipelined stream: an in-flight window slot for the
// op's whole lifetime, per-attempt deadlines, reconnect-on-poison with
// capped backoff, and lazy REGISTER replay when the server reports the
// region unknown.
func (c *Client) do(proto *call) ([]byte, error) { return c.doFrom(proto, 1, nil) }

// doFrom is do from the attempt-th try on, lastErr being what the one
// before failed of.
func (c *Client) doFrom(proto *call, attempt int, lastErr error) ([]byte, error) {
	if !c.acquire() {
		return nil, ErrClosed
	}
	defer c.release()
	return c.attempts(proto, attempt, lastErr)
}

// acquire takes a slot of the in-flight window, waiting for one unless
// the client closes. Non-blocking fast path first: a two-case select
// pays the full selectgo machinery even when the window has room, which
// is the common case on the per-op hot path.
func (c *Client) acquire() bool {
	select {
	case c.window <- struct{}{}:
		return true
	default:
	}
	select {
	case c.window <- struct{}{}:
		return true
	case <-c.closedCh:
		return false
	}
}

func (c *Client) release() { <-c.window }

// attempts is the one retry loop: the op's tries from the attempt-th on,
// lastErr being what the try before failed of. The caller holds a
// window slot. do enters it at the first attempt; the driver of an
// asynchronous op whose first attempt, started on its caller's
// goroutine, has failed enters it at the second.
func (c *Client) attempts(proto *call, attempt int, lastErr error) ([]byte, error) {
	for ; attempt <= c.opts.MaxAttempts; attempt++ {
		if c.isClosed() {
			return nil, ErrClosed
		}
		if attempt > 1 {
			c.retries.Add(1)
			if !c.sleep(c.backoff(attempt - 1)) {
				return nil, ErrClosed
			}
		}
		st, err := c.getStream()
		if err != nil {
			if errors.Is(err, ErrClosed) || IsTerminal(err) {
				return nil, err // a refused HELLO is as final as a refused op
			}
			lastErr = err
			continue
		}
		// Each attempt runs on a struct of its own: after a TCP stream is
		// poisoned its writer may still be draining the old send queue, so
		// the previous attempt's struct must never be mutated again. It
		// goes back to the pool only once both sides of the stream have
		// let go of it (see retire).
		// The link owns the deadline its watchdog reads: it stamps it when
		// the call goes on the wire, and a verb run on a region file, which
		// completes inside start, never reads the wall clock.
		srvID := c.translate(proto.handle)
		if st.files != nil && pageVerb(proto.op) && !st.files.tried(srvID) {
			c.attach(st, srvID, 0) // a region this client did not register
		}
		att := callPool.Get().(*call)
		att.arm(proto, srvID)
		body, err := roundTrip(st, att)
		srvID = att.retire()
		if err == nil {
			return body, nil
		}
		var final bool
		if final, lastErr = c.failed(st, proto, srvID, err); final {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("memnode: op %d failed after %d attempts: %w", proto.op, c.opts.MaxAttempts, lastErr)
}

// failed judges an attempt that ended in err on st. final: the op is
// over and the error returned is its result — a terminal refusal, over
// a connection that stays healthy. Otherwise another attempt follows,
// of which the error returned is the cause; a region the server lost is
// replayed first, which is a round trip on st.
func (c *Client) failed(st *stream, proto *call, srvID uint64, err error) (final bool, _ error) {
	var se *serverError
	if errors.As(err, &se) {
		return true, se
	}
	if errors.Is(err, errRegionLost) {
		if !c.canReplay(proto.handle) {
			// Not a region we registered — a genuinely bad ID, or a
			// shared region we cannot replay. Terminal either way.
			return true, &serverError{msg: err.Error()}
		}
		if rerr := c.replayRegion(st, proto.handle, srvID); rerr != nil {
			return false, rerr
		}
	}
	return false, err
}

// finish is the end of a page op on the public API, however it ran: a
// READ's body is checked against the length asked for, and a completed
// op is counted under the verb it was asked as with the bytes it moved —
// an op with destinations is a READV, whichever verb carried it.
func (c *Client) finish(proto *call, body []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if proto.dst != nil {
		c.countVerb(opReadV, proto.dstLen)
		return nil, nil
	}
	if proto.op == opRead && int64(len(body)) != proto.length {
		PutBuf(body)
		return nil, fmt.Errorf("memnode: short read response (%d of %d bytes)", len(body), proto.length)
	}
	c.countVerb(proto.op, proto.length)
	return body, nil
}

// doPages is do and finish: a synchronous page op. One that needs no
// descriptor table, on a region the file link has attached, is run by
// runFile on proto itself, on this goroutine: no window slot, since it is
// never in flight on the wire, no pooled attempt and no clock. The op
// goes to the retry loop when the region is not attached (which attaches
// it), when the server has revoked it (the frames carry it then), or
// when the file failed under it (which poisoned the link: the loop goes
// on from its second attempt).
func (c *Client) doPages(proto *call) ([]byte, error) {
	st, attempt := c.liveLink(), 1
	if st != nil && st.files != nil && proto.op != opReadV && proto.op != opWriteV {
		proto.srvID = c.translate(proto.handle)
		if st.runFile(proto) {
			if proto.err == nil || IsTerminal(proto.err) {
				return c.finish(proto, proto.body, proto.err)
			}
			attempt = 2
		}
	}
	body, err := c.doFrom(proto, attempt, proto.err)
	return c.finish(proto, body, err)
}

// callPool recycles call structs across attempts; do() decides when one
// may go back.
var callPool = sync.Pool{New: func() any { return new(call) }}

// Register sets up a memory region of size bytes and returns a stable
// handle for it: the region ID the server issued. The handle survives
// server restarts — ops that hit a restarted server transparently
// re-register the region (at its original size, zero-filled) and retry.
// On the file link the region's file is attached before Register
// returns.
func (c *Client) Register(size int64) (uint64, error) {
	body, err := c.do(&call{op: opRegister, length: size})
	if err != nil {
		return 0, err
	}
	id, err := registeredID(body)
	if err != nil {
		return 0, err
	}
	c.regMu.Lock()
	c.regions[id] = &region{size: size, srvID: id}
	c.regMu.Unlock()
	c.attach(c.liveLink(), id, size)
	return id, nil
}

// Unregister releases a region: the server returns its bytes to the
// capacity pool and the stable handle stops resolving on this client.
// The op rides the normal robustness stack; against a server that
// restarted and lost the region, the lazy REGISTER replay briefly
// recreates it (zero-filled) and the retry then removes it, so both
// paths converge on "gone". The handle record, and the region's file on
// the file link, are dropped only on success — a failed unregister
// leaves the region usable.
func (c *Client) Unregister(handle uint64) error {
	if !c.canReplay(handle) {
		return refusef("unknown region handle %d", handle)
	}
	if _, err := c.do(&call{op: opUnregister, handle: handle}); err != nil {
		return err
	}
	srvID := c.translate(handle)
	c.regMu.Lock()
	delete(c.regions, handle)
	c.regMu.Unlock()
	if st := c.liveLink(); st != nil && st.files != nil {
		st.files.remove(srvID, nil)
	}
	return nil
}

// Read performs a one-sided read of length bytes at offset. The
// returned buffer is the caller's; passing it to PutBuf when done lets
// the client recycle it.
func (c *Client) Read(handle uint64, offset, length int64) ([]byte, error) {
	proto := call{op: opRead, handle: handle, offset: offset, length: length}
	if err := proto.check(); err != nil {
		return nil, err
	}
	return c.doPages(&proto)
}

// Write performs a one-sided write of data at offset.
func (c *Client) Write(handle uint64, offset int64, data []byte) error {
	proto := call{op: opWrite, handle: handle, offset: offset, length: int64(len(data)), bufs: net.Buffers{data}}
	if err := proto.check(); err != nil {
		return err
	}
	_, err := c.doPages(&proto)
	return err
}

// check is the client's own refusal of a single-page op no node would
// accept.
func (ca *call) check() error {
	if ca.length <= 0 || ca.length > MaxIO {
		if ca.op == opWrite {
			return refusef("bad write length %d", ca.length)
		}
		return refusef("bad read length %d", ca.length)
	}
	return nil
}

// asyncOp is a started op: its first attempt was put on the wire by the
// goroutine that started it, the link completes it, and no goroutine
// stands between the two. hook is its one watcher: whoever completes the
// attempt ends the op and runs the hook, unless that takes a backoff, a
// dial or a REGISTER replay, which a completer may not do: the rest of
// the retry loop then gets a goroutine. So does an op that found the
// window full or no negotiated link, which runs as a synchronous op. When
// the hook runs, proto holds the result in body and err, as runFile
// leaves a prototype.
type asyncOp struct {
	c     *Client
	proto call
	hook  func(error)

	// The first attempt and the link it went out on, set before it starts
	// and the driver's from then on.
	st  *stream
	att *call
}

// spawn gives the op a goroutine to drive it: the one place an
// asynchronous op starts one.
func (p *asyncOp) spawn() {
	go p.run() //magevet:ok real TCP client: the slow paths of an async op (window full, link down, failed attempt) block, and their caller must not
}

// start puts the op's first attempt on the wire from the caller's
// goroutine, when there is a slot in the window and a live link to put
// it on.
func (p *asyncOp) start() {
	c := p.c
	select {
	case c.window <- struct{}{}:
	default:
		p.spawn()
		return
	}
	st := c.liveLink()
	if st == nil {
		c.release()
		p.spawn()
		return
	}
	att := callPool.Get().(*call)
	att.arm(&p.proto, c.translate(p.proto.handle))
	att.owner = p
	// Stamped here, not when a waiter parks: nobody ever waits for this
	// attempt, and a link times out only what carries a deadline.
	att.deadline = c.deadline()
	p.st, p.att = st, att
	st.start(att)
}

// attemptOver is the completing side's word that the first attempt has
// ended in err: its window slot is free, and the op goes on here. The
// completer holds no lock.
func (p *asyncOp) attemptOver(err error) {
	p.c.release()
	if err != nil && !IsTerminal(err) && !p.c.isClosed() {
		p.spawn()
		return
	}
	// A success, a terminal refusal, a closed client: run finds the op
	// over without blocking.
	p.run()
}

// run drives the op from wherever its start left it to its result,
// leaves that on proto and runs the hook.
func (p *asyncOp) run() {
	body, err := p.drive()
	p.proto.body, p.proto.err = p.c.finish(&p.proto, body, err)
	p.hook(p.proto.err)
}

// drive is do for an op whose first attempt may already be in flight:
// wait it out, and on a failure go on from the second.
func (p *asyncOp) drive() ([]byte, error) {
	c, att := p.c, p.att
	if att == nil {
		return c.do(&p.proto)
	}
	body, err := p.st.wait(att)
	srvID := att.retire()
	if err == nil {
		return body, nil
	}
	final, lastErr := c.failed(p.st, &p.proto, srvID, err)
	if final {
		return nil, lastErr
	}
	return c.doFrom(&p.proto, 2, lastErr)
}

// readv shapes ca as a READV of len(offsets) pages, page i of len(dst[i])
// bytes from offsets[i] into dst[i], or refuses the batch. A batch of one
// is shaped as the READ of that page, keeping its destination: the same
// bytes and STAT counts as Read on the wire, no descriptor table.
func (ca *call) readv(handle uint64, offsets []int64, dst [][]byte) error {
	if len(dst) == 0 || len(dst) > MaxBatchPages || len(dst) != len(offsets) {
		return refusef("bad batch shape (%d offsets, %d buffers)", len(offsets), len(dst))
	}
	var total int64
	for i, d := range dst {
		if len(d) == 0 {
			return refusef("empty buffer %d in batch", i)
		}
		if total += int64(len(d)); total > MaxIO {
			return refusef("batch total exceeds MaxIO")
		}
	}
	*ca = call{op: opReadV, handle: handle, offsets: offsets, dst: dst, dstLen: total}
	if len(dst) == 1 {
		ca.op, ca.offset, ca.length = opRead, offsets[0], total
	}
	return nil
}

// ReadVInto reads len(offsets) pages in one wire round trip (the
// transport analogue of the DES evictor's grouped writebacks), page i
// of len(dst[i]) bytes from offsets[i] into dst[i]. One page goes out
// as a READ, whose body lands in dst[0] as a READV's would; the client
// counts it as a ReadV all the same. The buffers are the caller's and
// are written by the transport alone until the call returns; on an error
// their contents are unspecified.
func (c *Client) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	var proto call
	if err := proto.readv(handle, offsets, dst); err != nil {
		return err
	}
	_, err := c.doPages(&proto)
	return err
}

// StartReadVInto is ReadVInto started, not run: the batch goes on the
// wire from the caller's goroutine and done is called, once, with the
// outcome ReadVInto would have returned. offsets and dst are lent until
// then. done runs on whichever goroutine ends the op — the link's
// reader, the goroutine that closed the client or poisoned the link, or
// this one, before StartReadVInto returns, when the file link ran the
// batch or the request is refused on the spot — so it must not block,
// must not start or wait for an op of this client, and must take no lock
// that is held around a call into the client.
func (c *Client) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	p := &asyncOp{c: c, hook: done}
	if err := p.proto.readv(handle, offsets, dst); err != nil {
		done(err)
		return
	}
	p.start()
}

// SplitPages cuts buf into pageBytes-sized pages, each capped at its own
// end: a destination set for ReadVInto over one allocation.
func SplitPages(buf []byte, pageBytes int64) [][]byte {
	pages := make([][]byte, int64(len(buf))/pageBytes)
	for i := range pages {
		lo := int64(i) * pageBytes
		pages[i] = buf[lo : lo+pageBytes : lo+pageBytes]
	}
	return pages
}

// WriteV writes len(pages) pages at the matching offsets in one wire
// round trip. The batch either fully applies or fails; retries re-send
// the whole batch, which is safe because page writes are idempotent.
func (c *Client) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	if len(pages) == 0 || len(pages) > MaxBatchPages || len(pages) != len(offsets) {
		return refusef("bad batch shape (%d offsets, %d pages)", len(offsets), len(pages))
	}
	var total int64
	for i, pg := range pages {
		if len(pg) == 0 {
			return refusef("empty page %d in batch", i)
		}
		total += int64(len(pg))
	}
	if total > MaxIO {
		return refusef("batch total %d exceeds MaxIO", total)
	}
	_, err := c.doPages(&call{op: opWriteV, handle: handle, offsets: offsets, src: pages, length: total})
	return err
}

// Stat fetches server statistics.
func (c *Client) Stat() (Stats, error) {
	body, err := c.do(&call{op: opStat})
	if err != nil {
		return Stats{}, err
	}
	if len(body) != statRespLen {
		return Stats{}, fmt.Errorf("memnode: short stat response (%d bytes)", len(body))
	}
	st := Stats{
		Regions:    binary.LittleEndian.Uint64(body[0:]),
		UsedBytes:  binary.LittleEndian.Uint64(body[8:]),
		ReadOps:    binary.LittleEndian.Uint64(body[16:]),
		WriteOps:   binary.LittleEndian.Uint64(body[24:]),
		BytesRead:  binary.LittleEndian.Uint64(body[32:]),
		BytesWrite: binary.LittleEndian.Uint64(body[40:]),
	}
	PutBuf(body)
	return st, nil
}

// Probe issues the lightweight STATS verb and returns the node's
// health/load sample. It rides the normal op path (window slot,
// deadline, retry), so against a dead node it fails within the
// client's configured attempt budget — which is exactly the signal a
// cluster health prober wants.
func (c *Client) Probe() (HealthStats, error) {
	body, err := c.do(&call{op: opProbe})
	if err != nil {
		return HealthStats{}, err
	}
	if len(body) != probeRespLen {
		return HealthStats{}, fmt.Errorf("memnode: short stats response (%d bytes)", len(body))
	}
	h := HealthStats{
		FreeBytes:     int64(binary.LittleEndian.Uint64(body[0:])),
		InFlight:      int64(binary.LittleEndian.Uint64(body[8:])),
		CapacityBytes: int64(binary.LittleEndian.Uint64(body[16:])),
	}
	PutBuf(body)
	c.countVerb(opProbe, 0)
	return h, nil
}
