// Package memnode implements the far-memory node of §5.2 as a real
// network service: a daemon that accepts region-registration requests and
// serves one-sided page reads and writes, plus the matching client.
//
// On the paper's testbed this role is played by a passive VM whose memory
// is registered with an RDMA NIC; here the transport is TCP (the only
// fabric available to a pure-Go artifact), but the protocol mirrors the
// verbs the paging systems need: REGISTER (memory-region setup), READ and
// WRITE at arbitrary offsets, batched READV/WRITEV, and STAT for
// monitoring. Region storage is allocated in 2 MiB chunks, mirroring the
// HugeTLB backing the paper uses to keep page-table walks cheap on the
// memory node.
//
// The store and its verbs are written once. Server.exec runs a request
// that pipelined frames carried over TCP (frame.go); like the NIC of a
// passive memory node, which runs each queue pair's verbs in posting
// order, the server runs a connection's frames from one loop on one
// goroutine (serveFrames), with no pool behind it. On the same host a
// server that offers shm is passive for page verbs, as the paper's node
// is: each region is a sealed memfd, a client attaches it over a unix
// socket (the fd is the rkey), and READ, WRITE, READV and WRITEV on an
// attached region are a pread or pwrite per page on the caller's
// goroutine, after exec's own checks (shm_client.go, shm_server.go).
package memnode

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"        //magevet:ok memnode is a real TCP daemon, not virtual-time simulation code
	"sync/atomic" //magevet:ok memnode is a real TCP daemon, not virtual-time simulation code
	"time"
)

// Opcodes (the batch verbs' are in frame.go).
const (
	opRegister = 1
	opRead     = 2
	opWrite    = 3
	opStat     = 4
	// opProbe is the STATS verb: a fixed-size health/load sample (free
	// bytes, in-flight op depth, capacity) cheap enough to issue on a
	// probe cadence. memcluster's replica selection runs on it.
	opProbe = 7
	// opUnregister releases a region: the ID stops resolving and its
	// bytes return to the capacity pool. memcluster's Register rollback
	// runs on it.
	opUnregister = 8
)

// Fixed reply sizes: REGISTER's region ID, STAT's six counters, and
// STATS' free(8) inflight(8) capacity(8).
const (
	registerRespLen = 8
	statRespLen     = 48
	probeRespLen    = 24
)

// Status codes.
const (
	statusOK = 0
	// statusErr is a terminal error: the request was understood and
	// rejected (bad bounds, capacity, bad opcode). Retrying is useless.
	statusErr = 1
	// statusErrRegion means the region ID is unknown — after a server
	// restart every pre-crash region reads this way. The client reacts
	// by replaying the REGISTER for its stable handle and retrying; page
	// ops are idempotent so the replay is safe.
	statusErrRegion = 2
)

// ChunkBytes is the backing allocation granularity (a 2 MiB huge page).
const ChunkBytes = 2 << 20

// MaxIO bounds a single READ/WRITE payload and the total data moved by
// one READV/WRITEV batch.
const MaxIO = 8 << 20

// ServerOptions selects the data planes a server offers besides TCP.
type ServerOptions struct {
	// EnableShm additionally offers same-host clients the file link
	// (DESIGN.md §13): every region is backed by a sealed memfd, the
	// HELLO response advertises a unix-domain socket where a client
	// attaches a region's file, and the client's page verbs on it are
	// preads and pwrites the server never sees. Requires platform
	// support (Linux); NewServerOptions fails otherwise.
	EnableShm bool
	// ShmPath is the unix socket path for attaching. Default:
	// memnode-shm-<port>.sock in the temp directory. A stale socket
	// file at the path is removed.
	ShmPath string
}

// Server is the far-memory node daemon.
type Server struct {
	ln      net.Listener
	opts    ServerOptions
	mu      sync.Mutex
	regions map[uint64][][]byte // regionID -> chunks
	sizes   map[uint64]int64
	// files holds the file a client may attach, of every region that has
	// one (shm servers only); ctrs the counter page of every region file
	// this server made, which STAT sums, unregistered ones included.
	files map[uint64]hostFile
	ctrs  []*counters
	// regionFrees unmaps mmap-backed region chunks and closes region
	// files; run only after every handler has drained (Close,
	// post-wg.Wait) so no IO can still alias a chunk.
	regionFrees []func()
	nextID      uint64
	capacity    int64
	used        int64

	// conns tracks live connections so Close can unblock handlers
	// parked in ReadFull on idle clients.
	conns map[net.Conn]struct{}

	// Attach socket state (nil/zero unless ServerOptions.EnableShm).
	shmLn    *net.UnixListener
	shmPath  string
	shmToken uint64

	// ops counts the page verbs exec ran (STAT adds the region files'
	// counter pages).
	ops counters

	// inflight counts requests currently executing across every
	// transport; served by the STATS probe as the server's load signal.
	inflight atomic.Int64

	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewServer listens on addr (e.g. "127.0.0.1:0") with a total capacity in
// bytes and default options.
func NewServer(addr string, capacity int64) (*Server, error) {
	return NewServerOptions(addr, capacity, ServerOptions{})
}

// NewServerOptions listens on addr with explicit transport options.
func NewServerOptions(addr string, capacity int64, opts ServerOptions) (*Server, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memnode: invalid capacity %d", capacity)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("memnode: listen: %w", err)
	}
	s := &Server{
		ln:      ln,
		opts:    opts,
		regions: make(map[uint64][][]byte),
		sizes:   make(map[uint64]int64),
		// Region IDs are seeded with a startup epoch rather than 1: a
		// restarted server must never hand out an ID that clients of the
		// previous instance still hold, or a stale srvID could alias a
		// freshly registered region and silently read/write the wrong
		// one. (The client's lazy REGISTER replay only triggers on
		// unknown-region NACKs, which an aliased ID never produces.)
		nextID:   uint64(time.Now().UnixNano()), //magevet:ok restart-unique region-ID epoch on a real network daemon
		capacity: capacity,
		conns:    make(map[net.Conn]struct{}),
		files:    make(map[uint64]hostFile),
	}
	if opts.EnableShm {
		if err := s.setupShm(); err != nil {
			_ = ln.Close() // constructor failure; the shm error is the one to surface
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop() //magevet:ok real network daemon: one accept loop per server
	if s.shmLn != nil {
		s.wg.Add(1)
		go s.shmAcceptLoop() //magevet:ok real network daemon: one accept loop for the shm unix socket
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connection handlers to finish.
// Live connections are closed so handlers parked mid-read return.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	for _, ctr := range s.ctrs {
		ctr.revoke() // attached clients stop using the files before their TCP streams end
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if s.shmLn != nil {
		_ = s.shmLn.Close() // the TCP listener Close error above is the one worth returning
	}
	s.mu.Lock()
	for conn := range s.conns { //magevet:ok close-all: each conn is closed exactly once, order cannot matter
		_ = conn.Close() // the listener Close error above is the one worth returning
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	frees := s.regionFrees
	s.regionFrees = nil
	s.regions = make(map[uint64][][]byte)
	s.files, s.ctrs = make(map[uint64]hostFile), nil // the frees unmap the counter pages
	s.mu.Unlock()
	for _, free := range frees {
		free()
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = conn.Close() // server is closing; best-effort teardown
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		//magevet:ok real network daemon: one handler goroutine per connection
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close() // handler is done; best-effort teardown
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serve(conn)
		}()
	}
}

// errNeedV2 refuses a connection that did not open with a HELLO this
// server can accept. It goes out in the HELLO response's framing, which
// every client build decodes.
const errNeedV2 = "protocol v2 required: open with a HELLO offering version 2"

// serve reads the connection preamble — one HELLO — and then runs the
// pipelined frames, or refuses the connection and closes it.
func (s *Server) serve(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var hello [helloReqLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	magic := binary.LittleEndian.Uint64(hello[1:9])
	version := binary.LittleEndian.Uint64(hello[9:17])
	status, body := byte(statusOK), s.helloBody()
	if hello[0] != opHello || magic != helloMagic || version < protoV2 {
		status, body = statusErr, []byte(errNeedV2)
	}
	var hdr [helloRespHdrLen]byte
	hdr[0] = status
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(body)))
	bufs := net.Buffers{hdr[:], body}
	if _, err := bufs.WriteTo(conn); err != nil || status != statusOK {
		return
	}
	s.serveFrames(conn, br)
}

// errUnknownRegion marks lookups of region IDs the server has never
// issued (or lost in a restart); it maps to statusErrRegion on the wire.
var errUnknownRegion = errors.New("unknown region")

// heapRegionChunks is the portable chunk allocator: plain GC-owned
// slices, used where mmap is unavailable or fails.
func heapRegionChunks(nChunks int) [][]byte {
	chunks := make([][]byte, nChunks)
	for i := range chunks {
		chunks[i] = make([]byte, ChunkBytes)
	}
	return chunks
}

// doRegister allocates a region and returns its ID as the reply body. A
// server that offers shm backs the region with a sealed file a client
// may attach (allocRegionFile), and with an anonymous mapping where it
// cannot make one; any other server with the anonymous mapping.
func (s *Server) doRegister(size int64) ([]byte, error) {
	// Bounds-check before any allocation: size is attacker-controlled
	// wire input.
	if size <= 0 || size > s.capacity {
		return nil, fmt.Errorf("register: bad size %d (capacity %d)", size, s.capacity)
	}
	s.mu.Lock()
	// Overflow-safe form of used+size > capacity: used stays within
	// [0, capacity], so the subtraction cannot wrap.
	if size > s.capacity-s.used {
		s.mu.Unlock()
		return nil, errors.New("register: capacity exhausted")
	}
	id := s.nextID
	s.nextID++
	nChunks := int((size + ChunkBytes - 1) / ChunkBytes)
	var (
		chunks  [][]byte
		release func()
		file    hostFile
		err     error = errShmUnsupported
	)
	if s.shmLn != nil {
		chunks, release, file, err = allocRegionFile(nChunks)
	}
	if err == nil {
		s.files[id] = file
		s.ctrs = append(s.ctrs, file.ctr)
	} else {
		chunks, release = allocRegionChunks(nChunks)
	}
	if release != nil {
		s.regionFrees = append(s.regionFrees, release)
	}
	s.regions[id] = chunks
	s.sizes[id] = size
	s.used += size
	s.mu.Unlock()

	resp := make([]byte, registerRespLen)
	binary.LittleEndian.PutUint64(resp, id)
	return resp, nil
}

// doUnregister forgets a region: the ID stops resolving, a file link
// that attached its file is told to stop using it, and its bytes return
// to the capacity pool. The backing chunks are deliberately NOT
// released here — zero-copy READ responses may still hold writev
// segments aliasing them — so mmap-backed chunks stay mapped, and a
// region's file open, until Close (regionFrees), and heap chunks are
// garbage-collected once the last in-flight response drops its
// reference.
func (s *Server) doUnregister(regionID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.regions[regionID]; !ok {
		return fmt.Errorf("%w %d", errUnknownRegion, regionID)
	}
	if f, ok := s.files[regionID]; ok {
		f.ctr.revoke()
		delete(s.files, regionID)
	}
	delete(s.regions, regionID)
	s.used -= s.sizes[regionID]
	delete(s.sizes, regionID)
	return nil
}

// chunkedWrite copies buf into the region at offset. The caller must
// have validated the range.
func chunkedWrite(chunks [][]byte, offset int64, buf []byte) {
	for len(buf) > 0 {
		ci, co := offset/ChunkBytes, offset%ChunkBytes
		n := copy(chunks[ci][co:], buf)
		buf = buf[n:]
		offset += int64(n)
	}
}

// appendChunkSegs appends the chunk subslices covering
// [offset, offset+length) to segs without copying. The caller must
// have validated the range. Safe to hold across the response write:
// chunk memory is never released before Close — UNREGISTER only drops
// the region from the lookup maps (see doUnregister) — and a
// concurrent overlapping WRITE tears the read exactly as one-sided
// RDMA would.
func appendChunkSegs(segs net.Buffers, chunks [][]byte, offset, length int64) net.Buffers {
	for length > 0 {
		ci := offset / ChunkBytes
		co := offset % ChunkBytes
		n := length
		if rem := ChunkBytes - co; n > rem {
			n = rem
		}
		segs = append(segs, chunks[ci][co:co+n])
		offset += n
		length -= n
	}
	return segs
}

// Stats is the STAT response.
type Stats struct {
	Regions    uint64
	UsedBytes  uint64
	ReadOps    uint64
	WriteOps   uint64
	BytesRead  uint64
	BytesWrite uint64
}

// counters is STAT's four page-verb counters, in the order of its
// reply: read ops, write ops, bytes read, bytes written. The server
// keeps one set for the verbs exec runs, and each region file one in its
// counter page for the verbs file links run (shm_server.go).
type counters struct {
	revoked atomic.Uint32 // a region file's: set when its region is gone
	_       [60]byte      // the client-written words on a cache line of their own
	n       [4]atomic.Uint64
}

// tally counts a page verb that passed exec's checks as exec counts it:
// one op per range it moved, and their bytes.
func (c *counters) tally(op byte, ranges int, total int64) {
	i := 1 // WRITE, WRITEV
	if op == opRead || op == opReadV {
		i = 0
	}
	c.n[i].Add(uint64(ranges))
	c.n[i+2].Add(uint64(total))
}

func (c *counters) revoke()         { c.revoked.Store(1) }
func (c *counters) isRevoked() bool { return c.revoked.Load() != 0 }

func (s *Server) doStat() []byte {
	s.mu.Lock()
	regions, used := uint64(len(s.regions)), uint64(s.used)
	var sum [4]uint64
	for _, ctr := range append(s.ctrs, &s.ops) {
		for i := range sum {
			sum[i] += ctr.n[i].Load()
		}
	}
	s.mu.Unlock()
	buf := make([]byte, statRespLen)
	binary.LittleEndian.PutUint64(buf[0:], regions)
	binary.LittleEndian.PutUint64(buf[8:], used)
	for i, n := range sum {
		binary.LittleEndian.PutUint64(buf[16+8*i:], n)
	}
	return buf
}

// HealthStats is the STATS probe response: the load/health sample
// memcluster's replica selection and failure detection run on. One
// mutex acquisition and two atomic loads per probe — cheap enough for
// a sub-second cadence against a loaded node.
type HealthStats struct {
	// FreeBytes is the unregistered remainder of the node's capacity.
	FreeBytes int64
	// InFlight is the number of requests executing at sample time
	// (including the probe itself).
	InFlight int64
	// CapacityBytes is the node's total configured capacity.
	CapacityBytes int64
}

func (s *Server) doProbe() []byte {
	s.mu.Lock()
	free := s.capacity - s.used
	s.mu.Unlock()
	buf := make([]byte, probeRespLen)
	binary.LittleEndian.PutUint64(buf[0:], uint64(free))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.inflight.Load()))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.capacity))
	return buf
}

// request is one decoded verb, however it came: a frame the server read,
// or a call a file link runs on the caller's goroutine.
type request struct {
	op       byte
	regionID uint64
	offset   int64
	length   int64  // READ: bytes wanted; REGISTER: region size; WRITE, READV, WRITEV: payload bytes
	table    []byte // READV, WRITEV: the descriptor table, in memory the peer cannot write
	data     []byte // WRITE, WRITEV read off a frame: the payload past the table
	dataLen  int64  // the bytes of payload past the table, wherever they are held
}

// carriesPayload reports whether op's requests are followed by payload
// bytes, length of them.
func carriesPayload(op byte) bool { return op == opWrite || op == opReadV || op == opWriteV }

// pageVerb reports whether op moves pages: the verbs a file link runs.
func pageVerb(op byte) bool { return op == opRead || carriesPayload(op) }

// setPayload locates a payload held whole: WRITE's is all data, a batch
// verb's is its descriptor table and whatever follows it.
func (req *request) setPayload(payload []byte) {
	if req.op == opWrite {
		req.data = payload
	} else {
		n := batchTableLen(payload)
		req.table, req.data = payload[:n], payload[n:]
	}
	req.dataLen = int64(len(req.data))
}

// shape is the first half of exec's checks of a page verb, the ones that
// need no region: the payload the header declares against the one the
// request holds, a single page's length, and a batch's table, parsed into
// iovs, against its data — WRITEV's is exactly what the descriptors
// cover, READV has none. It returns the ranges' total bytes; a single
// page's range is the request's own offset and length.
func (req *request) shape(iovs []iovec) ([]iovec, int64, error) {
	if held := int64(len(req.table)) + req.dataLen; carriesPayload(req.op) && req.length != held {
		return nil, 0, fmt.Errorf("op %d: header declares %d payload bytes, the request holds %d", req.op, req.length, held)
	}
	if req.op == opRead || req.op == opWrite {
		if req.length <= 0 || req.length > MaxIO {
			return nil, 0, fmt.Errorf("bad length %d", req.length)
		}
		return iovs, req.length, nil
	}
	iovs, total, err := parseIovecs(req.table, iovs)
	switch {
	case err != nil:
	case req.op == opWriteV && req.dataLen != total:
		err = fmt.Errorf("writev: descriptors cover %d bytes, payload carries %d", total, req.dataLen)
	case req.op == opReadV && req.dataLen != 0:
		err = fmt.Errorf("readv: %d trailing payload bytes", req.dataLen)
	}
	return iovs, total, err
}

// inBounds is the second half, against the size of the verb's region:
// every range, all of them before a byte moves, so that a batch applies
// whole or not at all.
func (req *request) inBounds(iovs []iovec, size int64) error {
	// off > size-n rather than off+n > size: the sum overflows int64 for
	// offsets near MaxInt64 and would pass validation.
	if off, n := req.offset, req.length; req.op == opRead || req.op == opWrite {
		if off < 0 || n > size || off > size-n {
			return fmt.Errorf("out of bounds off=%d len=%d in %d", off, n, size)
		}
		return nil
	}
	for i, v := range iovs {
		if v.off < 0 || v.length > size || v.off > size-v.length {
			return fmt.Errorf("batch desc %d out of bounds off=%d len=%d in %d", i, v.off, v.length, size)
		}
	}
	return nil
}

// reply is exec's answer: a status with a small body (a region ID, a
// counter blob, an error message) or, for a READ or READV that passed
// every check, a read plan — the ranges to move, which serveFrames sends
// as segments aliasing the region (appendSegs).
type reply struct {
	status byte
	body   []byte
	// The plan: total bytes (zero: no plan) of the region chunks holds,
	// at read for a READ and at readv for a READV. read is a value — a
	// slice of the reply's own array would point the reply at itself,
	// which sends every reply to the heap.
	total  int64
	chunks [][]byte
	read   iovec
	readv  []iovec
}

// appendSegs appends the plan to segs as segments that alias the region:
// the zero-copy read of the TCP framing.
func (rp *reply) appendSegs(segs net.Buffers) net.Buffers {
	segs = appendChunkSegs(segs, rp.chunks, rp.read.off, rp.read.length)
	for _, v := range rp.readv {
		segs = appendChunkSegs(segs, rp.chunks, v.off, v.length)
	}
	return segs
}

// exec runs one request against the region store: the one
// implementation of every verb the frames carry. Its checks of a page
// verb are shape and inBounds, which a file link runs too, so that the
// two refuse the same requests in the same words; batch atomicity
// (every descriptor validated before the first byte moves), the op
// counters and the in-flight gauge are here, and a request exec refuses
// has had no effect.
//
// Concurrent requests touching overlapping byte ranges race exactly as
// one-sided RDMA would: the server guarantees bounds and frame
// integrity, not cross-request ordering. Callers that need ordering (the
// paging systems do: one page has one owner at a time) must not issue
// conflicting ops concurrently.
func (s *Server) exec(req *request, rp *reply) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var err error
	switch req.op {
	case opRead, opWrite, opReadV, opWriteV:
		err = s.pages(req, rp)
	case opRegister:
		rp.body, err = s.doRegister(req.length)
	case opStat:
		rp.body = s.doStat()
	case opProbe:
		rp.body = s.doProbe()
	case opUnregister:
		err = s.doUnregister(req.regionID)
	default:
		err = fmt.Errorf("bad opcode %d", req.op)
	}
	if err != nil {
		*rp = reply{status: statusErr, body: []byte(err.Error())}
		if errors.Is(err, errUnknownRegion) {
			rp.status = statusErrRegion
		}
	}
}

// pages is exec of a page verb: shape, the region, inBounds, and then
// the write, or the read plan.
func (s *Server) pages(req *request, rp *reply) error {
	iovs, total, err := req.shape(nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	chunks, ok := s.regions[req.regionID]
	size := s.sizes[req.regionID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %d", errUnknownRegion, req.regionID)
	}
	if err := req.inBounds(iovs, size); err != nil {
		return err
	}
	switch req.op {
	case opRead:
		rp.total, rp.chunks, rp.read = total, chunks, iovec{req.offset, req.length}
	case opReadV:
		rp.total, rp.chunks, rp.readv = total, chunks, iovs
	case opWrite:
		chunkedWrite(chunks, req.offset, req.data)
	case opWriteV:
		data := req.data
		for _, v := range iovs {
			chunkedWrite(chunks, v.off, data[:v.length])
			data = data[v.length:]
		}
	}
	s.ops.tally(req.op, max(len(iovs), 1), total)
	return nil
}

// serveFrames runs the pipelined frames on one connection, on this one
// goroutine, as a NIC runs a queue pair's verbs: it reads a frame, runs
// exec on it and queues the reply. The queued replies leave in one writev
// at the refill point — just before a read, of a header or of a payload,
// that br's buffer cannot serve, since the peer may be waiting for them
// before it sends the rest — or once writeBatch of them are queued.
// Replies leave in request order, and a large WRITEV delays the frames
// behind it.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader) {
	var (
		hdr  [v2ReqHdrLen]byte
		hdrs [writeBatch][v2RespHdrLen]byte
		n    int // replies queued in iov
		// WriteTo consumes the slice it is called on, capacity and all, so
		// each batch's vector is cut afresh from vecs.
		vecs = make(net.Buffers, 0, 2*writeBatch)
		iov  = vecs
	)
	flush := func() error {
		if n == 0 {
			return nil
		}
		vecs, n = iov[:0], 0 // keeps what a large batch grew
		_, err := iov.WriteTo(conn)
		iov = vecs
		return err
	}
	// refill flushes the queue if reading need more bytes touches the socket.
	refill := func(need int) bool { return br.Buffered() >= need || flush() == nil }
	for refill(v2ReqHdrLen) {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		id := binary.LittleEndian.Uint64(hdr[1:9])
		req := request{
			op:       hdr[0],
			regionID: binary.LittleEndian.Uint64(hdr[9:17]),
			offset:   int64(binary.LittleEndian.Uint64(hdr[17:25])),
			length:   int64(binary.LittleEndian.Uint64(hdr[25:33])),
		}
		// Ops that carry a payload declare its size in the length field.
		// An absurd size is a framing violation we cannot skip past, so
		// the connection dies after the replies it has earned; in-range
		// payloads are always consumed so the stream stays aligned even
		// when the op is later rejected.
		var payload []byte
		if carriesPayload(req.op) {
			if req.length < 0 || req.length > maxV2Payload {
				_ = flush() // the connection closes either way
				return
			}
			if !refill(int(req.length)) {
				return
			}
			payload = GetBuf(int(req.length))
			if _, err := io.ReadFull(br, payload); err != nil {
				PutBuf(payload)
				return
			}
			req.setPayload(payload)
		}
		var rp reply
		s.exec(&req, &rp)
		PutBuf(payload) // a read plan's ranges are parsed out of the table: no reply refers to it
		h := &hdrs[n]
		h[0] = rp.status
		binary.LittleEndian.PutUint64(h[1:], id)
		binary.LittleEndian.PutUint64(h[9:], uint64(int64(len(rp.body))+rp.total))
		iov = append(iov, h[:])
		if len(rp.body) > 0 {
			iov = append(iov, rp.body)
		}
		// A read goes out as segments aliasing the region: the server
		// never copies the page.
		iov = rp.appendSegs(iov)
		if n++; n == writeBatch && flush() != nil {
			return
		}
	}
}
