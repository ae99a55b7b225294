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
// The store and its verbs are written once: Server.exec runs a request
// against the regions whichever framing carried it. A framing only
// locates a request's bytes and encodes the reply — pipelined frames on
// TCP (frame.go) or descriptors on a shared-memory ring (shm_server.go).
// Like the NIC of a passive memory node, which runs each queue pair's
// verbs in posting order, each framing serves a connection from one loop
// on one goroutine (serveFrames, shmConn.loop), with no pool behind it.
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
	// EnableShm additionally serves the shared-memory ring transport
	// (DESIGN.md §13): the HELLO response advertises a unix-domain
	// socket where clients obtain a memfd-backed segment and move page
	// data through shared rings instead of socket payloads. Requires
	// platform support (Linux); NewServerOptions fails otherwise.
	EnableShm bool
	// ShmPath is the unix socket path for shm negotiation. Default:
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
	// regionFrees unmaps mmap-backed region chunks; run only after
	// every handler has drained (Close, post-wg.Wait) so no IO can
	// still alias a chunk.
	regionFrees []func()
	nextID      uint64
	capacity    int64
	used        int64

	// conns tracks live connections so Close can unblock handlers
	// parked in ReadFull on idle clients.
	conns map[net.Conn]struct{}

	// Shm transport state (nil/zero unless ServerOptions.EnableShm).
	shmLn    *net.UnixListener
	shmPath  string
	shmToken uint64
	shmConns map[*shmConn]struct{} // live shm connections; under mu
	// shmParkOnly is a test hook: it holds the yield budget of every
	// shm connection accepted after it is set at zero, so each wait parks.
	shmParkOnly atomic.Bool

	// Stats (atomic; served by STAT).
	ReadOps    atomic.Uint64
	WriteOps   atomic.Uint64
	BytesRead  atomic.Uint64
	BytesWrite atomic.Uint64

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
		shmConns: make(map[*shmConn]struct{}),
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

// doRegister allocates a region and returns its ID as the reply body.
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
	chunks, release := allocRegionChunks(nChunks)
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

// doUnregister forgets a region: the ID stops resolving and its bytes
// return to the capacity pool. The backing chunks are deliberately NOT
// released here — zero-copy READ responses may still hold writev
// segments aliasing them — so mmap-backed chunks stay mapped until
// Close (regionFrees) and heap chunks are garbage-collected once the
// last in-flight response drops its reference.
func (s *Server) doUnregister(regionID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.regions[regionID]; !ok {
		return fmt.Errorf("%w %d", errUnknownRegion, regionID)
	}
	delete(s.regions, regionID)
	s.used -= s.sizes[regionID]
	delete(s.sizes, regionID)
	return nil
}

// regionAt validates and returns the chunk list for an IO.
func (s *Server) regionAt(regionID uint64, offset, length int64) ([][]byte, error) {
	if length <= 0 || length > MaxIO {
		return nil, fmt.Errorf("bad length %d", length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chunks, ok := s.regions[regionID]
	if !ok {
		return nil, fmt.Errorf("%w %d", errUnknownRegion, regionID)
	}
	// offset > size-length rather than offset+length > size: the sum
	// overflows int64 for offsets near MaxInt64 and would pass validation.
	if size := s.sizes[regionID]; offset < 0 || length > size || offset > size-length {
		return nil, fmt.Errorf("out of bounds off=%d len=%d in %d", offset, length, size)
	}
	return chunks, nil
}

// regionForBatch validates every descriptor of a batch against the
// region under one lock acquisition. The batch either fully validates
// or fails without side effects.
func (s *Server) regionForBatch(regionID uint64, iovs []iovec) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chunks, ok := s.regions[regionID]
	if !ok {
		return nil, fmt.Errorf("%w %d", errUnknownRegion, regionID)
	}
	size := s.sizes[regionID]
	for i, v := range iovs {
		// Overflow-safe form of v.off+v.length > size (see regionAt).
		if v.off < 0 || v.length > size || v.off > size-v.length {
			return nil, fmt.Errorf("batch desc %d out of bounds off=%d len=%d in %d", i, v.off, v.length, size)
		}
	}
	return chunks, nil
}

func chunkedCopy(chunks [][]byte, offset int64, buf []byte, toRegion bool) {
	for len(buf) > 0 {
		ci := offset / ChunkBytes
		co := offset % ChunkBytes
		n := int64(len(buf))
		if rem := ChunkBytes - co; n > rem {
			n = rem
		}
		if toRegion {
			copy(chunks[ci][co:co+n], buf[:n])
		} else {
			copy(buf[:n], chunks[ci][co:co+n])
		}
		buf = buf[n:]
		offset += n
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

func (s *Server) doStat() []byte {
	s.mu.Lock()
	regions, used := uint64(len(s.regions)), uint64(s.used)
	s.mu.Unlock()
	buf := make([]byte, statRespLen)
	binary.LittleEndian.PutUint64(buf[0:], regions)
	binary.LittleEndian.PutUint64(buf[8:], used)
	binary.LittleEndian.PutUint64(buf[16:], s.ReadOps.Load())
	binary.LittleEndian.PutUint64(buf[24:], s.WriteOps.Load())
	binary.LittleEndian.PutUint64(buf[32:], s.BytesRead.Load())
	binary.LittleEndian.PutUint64(buf[40:], s.BytesWrite.Load())
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

// request is one decoded verb, whichever framing carried it. The framing
// fills in where it located the payload and how many bytes it can carry
// back; exec checks both against what the header declares.
type request struct {
	op       byte
	regionID uint64
	offset   int64
	length   int64  // READ: bytes wanted; REGISTER: region size; WRITE, READV, WRITEV: payload bytes
	table    []byte // READV, WRITEV: the descriptor table, in memory the peer cannot write
	data     []byte // WRITE, WRITEV: the payload past the table; may alias memory the peer can write
	room     int64  // the largest reply the framing can carry
}

// carriesPayload reports whether op's requests are followed by payload
// bytes, length of them.
func carriesPayload(op byte) bool { return op == opWrite || op == opReadV || op == opWriteV }

// cutPayload splits a located payload by verb: WRITE's is all data, a
// batch verb's is its descriptor table and whatever follows it.
func cutPayload(op byte, payload []byte) (table, data []byte) {
	if op == opWrite {
		return nil, payload
	}
	n := batchTableLen(payload)
	return payload[:n], payload[n:]
}

// fits refuses a reply of n bytes that the framing has no room for. exec
// asks before it allocates, counts or moves anything.
func (req *request) fits(n int64) error {
	if n > req.room {
		return fmt.Errorf("op %d: reply of %d bytes exceeds the %d the request left room for", req.op, n, req.room)
	}
	return nil
}

// batch parses a batch verb's table and holds the rest of the payload to
// it: WRITEV's data is exactly what the descriptors cover, READV has none.
func (req *request) batch() (iovs []iovec, total int64, err error) {
	iovs, total, err = parseIovecs(req.table)
	switch {
	case err != nil:
	case req.op == opWriteV && int64(len(req.data)) != total:
		err = fmt.Errorf("writev: descriptors cover %d bytes, payload carries %d", total, len(req.data))
	case req.op == opReadV && len(req.data) != 0:
		err = fmt.Errorf("readv: %d trailing payload bytes", len(req.data))
	}
	return iovs, total, err
}

// reply is exec's answer: a status with a small body (a region ID, a
// counter blob, an error message) or, for a READ or READV that passed
// every check, a read plan — the ranges to move, which the framing
// encodes its own way (appendSegs, copyTo).
type reply struct {
	status byte
	body   []byte
	// The plan: total bytes (zero: no plan) of the region chunks holds,
	// at read for a READ and at readv for a READV. read is a value — a
	// slice of the reply's own array would point the reply at itself,
	// which sends every reply to the heap, and the ring path allocates
	// nothing per op.
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

// copyTo copies the plan's total bytes into dst, in order: the ring
// framing's read, into the request's extent.
func (rp *reply) copyTo(dst []byte) {
	chunkedCopy(rp.chunks, rp.read.off, dst[:rp.read.length], false)
	for _, v := range rp.readv {
		chunkedCopy(rp.chunks, v.off, dst[:v.length], false)
		dst = dst[v.length:]
	}
}

// exec runs one request against the region store: the one
// implementation of every verb, behind both framings. The checks and
// their wording, batch atomicity (every descriptor validated before the
// first byte moves), the op counters and the in-flight gauge are here and
// nowhere else, and a request exec refuses has had no effect.
//
// Concurrent requests touching overlapping byte ranges race exactly as
// one-sided RDMA would — and so does a peer rewriting a ring payload
// under its own WRITE: the server guarantees bounds and frame integrity,
// not cross-request ordering. Callers that need ordering (the paging
// systems do: one page has one owner at a time) must not issue
// conflicting ops concurrently.
func (s *Server) exec(req *request, rp *reply) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var (
		err    error
		chunks [][]byte
		iovs   []iovec
		total  int64
	)
	if held := int64(len(req.table) + len(req.data)); carriesPayload(req.op) && req.length != held {
		err = fmt.Errorf("op %d: header declares %d payload bytes, the request holds %d", req.op, req.length, held)
	} else {
		switch req.op {
		case opRegister:
			if err = req.fits(registerRespLen); err == nil {
				rp.body, err = s.doRegister(req.length)
			}
		case opRead:
			if chunks, err = s.regionAt(req.regionID, req.offset, req.length); err == nil {
				err = req.fits(req.length)
			}
			if err == nil {
				rp.total, rp.chunks, rp.read = req.length, chunks, iovec{req.offset, req.length}
				s.ReadOps.Add(1)
				s.BytesRead.Add(uint64(req.length))
			}
		case opWrite:
			if chunks, err = s.regionAt(req.regionID, req.offset, req.length); err == nil {
				chunkedCopy(chunks, req.offset, req.data, true)
				s.WriteOps.Add(1)
				s.BytesWrite.Add(uint64(req.length))
			}
		case opReadV:
			if iovs, total, err = req.batch(); err == nil {
				chunks, err = s.regionForBatch(req.regionID, iovs)
			}
			if err == nil {
				err = req.fits(total)
			}
			if err == nil {
				rp.total, rp.chunks, rp.readv = total, chunks, iovs
				s.ReadOps.Add(uint64(len(iovs)))
				s.BytesRead.Add(uint64(total))
			}
		case opWriteV:
			if iovs, total, err = req.batch(); err == nil {
				chunks, err = s.regionForBatch(req.regionID, iovs)
			}
			if err == nil {
				data := req.data
				for _, v := range iovs {
					chunkedCopy(chunks, v.off, data[:v.length], true)
					data = data[v.length:]
				}
				s.WriteOps.Add(uint64(len(iovs)))
				s.BytesWrite.Add(uint64(total))
			}
		case opStat:
			if err = req.fits(statRespLen); err == nil {
				rp.body = s.doStat()
			}
		case opProbe:
			if err = req.fits(probeRespLen); err == nil {
				rp.body = s.doProbe()
			}
		case opUnregister:
			err = s.doUnregister(req.regionID)
		default:
			err = fmt.Errorf("bad opcode %d", req.op)
		}
	}
	if err != nil {
		*rp = reply{status: statusErr, body: []byte(err.Error())}
		if errors.Is(err, errUnknownRegion) {
			rp.status = statusErrRegion
		}
	}
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
			room:     maxV2Payload,
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
			payload = getBuf(int(req.length))
			if _, err := io.ReadFull(br, payload); err != nil {
				PutBuf(payload)
				return
			}
			req.table, req.data = cutPayload(req.op, payload)
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
