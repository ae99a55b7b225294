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
// Two wire protocols are spoken, negotiated per connection (frame.go):
//
// v1, length-prefixed binary, little-endian, strict stop-and-wait:
//
//	request:  op(1) regionID(8) offset(8) length(8) payload(length, WRITE only)
//	response: status(1) length(8) payload(length)
//
// v2 adds a request ID to every frame so one connection multiplexes many
// outstanding operations; see frame.go for the layout and the batch-verb
// payload format. Server-side, a v2 connection demuxes requests into a
// bounded per-connection worker pool and serializes responses through a
// single writev-based writer, so deep client pipelines actually overlap
// region copies with wire IO.
package memnode

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"        //magevet:ok memnode is a real TCP daemon, not virtual-time simulation code
	"sync/atomic" //magevet:ok memnode is a real TCP daemon, not virtual-time simulation code
	"time"
)

// Opcodes shared by v1 and v2 (batch opcodes live in frame.go).
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

// probeRespLen is the STATS response: free(8) inflight(8) capacity(8).
const probeRespLen = 24

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

// ServerOptions tunes protocol support and per-connection concurrency.
type ServerOptions struct {
	// MaxProtocol caps the negotiated wire protocol: protoV2 (the
	// default) accepts both v1 and v2 clients; protoV1 refuses the v2
	// HELLO, turning the server into a legacy node (used by the
	// negotiation tests and the -proto flag of cmd/memnode).
	MaxProtocol int
	// Workers is the per-connection worker pool size for v2
	// connections: how many requests from one pipelined client may be
	// executed concurrently. Default 8.
	Workers int

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
	// ShmArenaBytes overrides the per-connection data arena size.
	// Default: sized for the client's window plus two maximal batches
	// (~20 MiB at the default window).
	ShmArenaBytes int64
}

func (o *ServerOptions) fillDefaults() {
	if o.MaxProtocol <= 0 || o.MaxProtocol > protoV2 {
		o.MaxProtocol = protoV2
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
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
	// transport and protocol version; served by the STATS probe as the
	// server's load signal.
	inflight atomic.Int64

	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewServer listens on addr (e.g. "127.0.0.1:0") with a total capacity in
// bytes and default options.
func NewServer(addr string, capacity int64) (*Server, error) {
	return NewServerOptions(addr, capacity, ServerOptions{})
}

// NewServerOptions listens on addr with explicit protocol/concurrency
// options.
func NewServerOptions(addr string, capacity int64, opts ServerOptions) (*Server, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memnode: invalid capacity %d", capacity)
	}
	opts.fillDefaults()
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

// serve runs the v1 stop-and-wait loop. A HELLO request upgrades the
// connection to v2 framing (serveV2) when the server allows it; any
// other traffic is served as v1 forever, so legacy clients never notice
// the server understands more.
func (s *Server) serve(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	hdr := make([]byte, v1ReqHdrLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		op := hdr[0]
		regionID := binary.LittleEndian.Uint64(hdr[1:9])
		offset := int64(binary.LittleEndian.Uint64(hdr[9:17]))
		length := int64(binary.LittleEndian.Uint64(hdr[17:25]))

		var err error
		if op != opHello {
			// Count every data exchange toward the STATS load signal; the
			// HELLO negotiation is excluded (its v2 branch returns without
			// falling through to the decrement below).
			s.inflight.Add(1)
		}
		switch op {
		case opHello:
			// regionID carries the magic, offset the client's max version.
			if s.opts.MaxProtocol >= protoV2 && regionID == helloMagic && offset >= protoV2 {
				if err := respond(conn, s.helloBody()); err != nil {
					return
				}
				s.serveV2(conn, br)
				return
			}
			// A v1-only server (or a garbled probe) rejects the HELLO the
			// same way it rejects any unknown opcode; the connection stays
			// healthy and the client falls back to v1.
			err = respondErr(conn, fmt.Sprintf("bad opcode %d", op))
		case opRegister:
			err = s.handleRegister(conn, length)
		case opRead:
			err = s.handleRead(conn, regionID, offset, length)
		case opWrite:
			err = s.handleWrite(conn, br, regionID, offset, length)
		case opStat:
			err = s.handleStat(conn)
		case opProbe:
			err = respond(conn, s.doProbe())
		case opUnregister:
			err = s.handleUnregister(conn, regionID)
		default:
			err = respondErr(conn, fmt.Sprintf("bad opcode %d", op))
		}
		if op != opHello {
			s.inflight.Add(-1)
		}
		if err != nil {
			return
		}
	}
}

// writeFrames writes a header and optional payload as one writev, so a
// response never costs two syscalls (or two TCP segments under
// TCP_NODELAY) the way the old header-then-payload pair of Writes did.
func writeFrames(conn net.Conn, hdr, payload []byte) error {
	if len(payload) == 0 {
		_, err := conn.Write(hdr)
		return err
	}
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(conn)
	return err
}

func respond(conn net.Conn, payload []byte) error {
	var hdr [v1RespHdrLen]byte
	hdr[0] = statusOK
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	return writeFrames(conn, hdr[:], payload)
}

func respondErr(conn net.Conn, msg string) error {
	return respondErrCode(conn, statusErr, msg)
}

func respondErrCode(conn net.Conn, code byte, msg string) error {
	var hdr [v1RespHdrLen]byte
	hdr[0] = code
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(msg)))
	return writeFrames(conn, hdr[:], []byte(msg))
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

// doRegister allocates a region and returns its ID payload, or a status
// code and message. Shared by the v1 and v2 paths.
func (s *Server) doRegister(size int64) ([]byte, byte, string) {
	// Bounds-check before any allocation: size is attacker-controlled
	// wire input.
	if size <= 0 || size > s.capacity {
		return nil, statusErr, fmt.Sprintf("register: bad size %d (capacity %d)", size, s.capacity)
	}
	s.mu.Lock()
	// Overflow-safe form of used+size > capacity: used stays within
	// [0, capacity], so the subtraction cannot wrap.
	if size > s.capacity-s.used {
		s.mu.Unlock()
		return nil, statusErr, "register: capacity exhausted"
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

	resp := make([]byte, 8)
	binary.LittleEndian.PutUint64(resp, id)
	return resp, statusOK, ""
}

func (s *Server) handleRegister(conn net.Conn, size int64) error {
	body, code, msg := s.doRegister(size)
	if code != statusOK {
		return respondErrCode(conn, code, msg)
	}
	return respond(conn, body)
}

// doUnregister forgets a region: the ID stops resolving and its bytes
// return to the capacity pool. The backing chunks are deliberately NOT
// released here — zero-copy v2 READ responses may still hold writev
// segments aliasing them — so mmap-backed chunks stay mapped until
// Close (regionFrees) and heap chunks are garbage-collected once the
// last in-flight response drops its reference. Shared by the v1, v2,
// and shm dispatch paths.
func (s *Server) doUnregister(regionID uint64) (byte, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.regions[regionID]; !ok {
		return statusErrRegion, fmt.Sprintf("%v %d", errUnknownRegion, regionID)
	}
	delete(s.regions, regionID)
	s.used -= s.sizes[regionID]
	delete(s.sizes, regionID)
	return statusOK, ""
}

func (s *Server) handleUnregister(conn net.Conn, regionID uint64) error {
	code, msg := s.doUnregister(regionID)
	if code != statusOK {
		return respondErrCode(conn, code, msg)
	}
	return respond(conn, nil)
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

// errStatus maps a validation error to its wire status code.
func errStatus(err error) byte {
	if errors.Is(err, errUnknownRegion) {
		return statusErrRegion
	}
	return statusErr
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

// doRead copies length bytes out of a region into a pooled buffer. The
// caller owns the buffer and must PutBuf it after the response is on
// the wire.
func (s *Server) doRead(regionID uint64, offset, length int64) ([]byte, byte, string) {
	chunks, err := s.regionAt(regionID, offset, length)
	if err != nil {
		return nil, errStatus(err), err.Error()
	}
	buf := getBuf(int(length))
	chunkedCopy(chunks, offset, buf, false)
	s.ReadOps.Add(1)
	s.BytesRead.Add(uint64(length))
	return buf, statusOK, ""
}

func (s *Server) handleRead(conn net.Conn, regionID uint64, offset, length int64) error {
	body, code, msg := s.doRead(regionID, offset, length)
	if code != statusOK {
		return respondErrCode(conn, code, msg)
	}
	err := respond(conn, body)
	PutBuf(body)
	return err
}

// doWrite applies one write whose payload has already been read off the
// wire.
func (s *Server) doWrite(regionID uint64, offset int64, data []byte) (byte, string) {
	chunks, err := s.regionAt(regionID, offset, int64(len(data)))
	if err != nil {
		return errStatus(err), err.Error()
	}
	chunkedCopy(chunks, offset, data, true)
	s.WriteOps.Add(1)
	s.BytesWrite.Add(uint64(len(data)))
	return statusOK, ""
}

func (s *Server) handleWrite(conn net.Conn, br *bufio.Reader, regionID uint64, offset, length int64) error {
	if length <= 0 || length > MaxIO {
		return respondErr(conn, fmt.Sprintf("bad length %d", length))
	}
	buf := getBuf(int(length))
	if _, err := io.ReadFull(br, buf); err != nil {
		PutBuf(buf)
		return err
	}
	code, msg := s.doWrite(regionID, offset, buf)
	PutBuf(buf)
	if code != statusOK {
		return respondErrCode(conn, code, msg)
	}
	return respond(conn, nil)
}

// doWriteV applies a batched write: payload is the descriptor table
// followed by the concatenated data. Every descriptor is validated
// before any byte lands, so a bad batch has no partial effects.
func (s *Server) doWriteV(regionID uint64, payload []byte) (byte, string) {
	iovs, consumed, total, err := parseIovecs(payload)
	if err != nil {
		return statusErr, err.Error()
	}
	data := payload[consumed:]
	if int64(len(data)) != total {
		return statusErr, fmt.Sprintf("writev: descriptors cover %d bytes, payload carries %d", total, len(data))
	}
	chunks, err := s.regionForBatch(regionID, iovs)
	if err != nil {
		return errStatus(err), err.Error()
	}
	for _, v := range iovs {
		chunkedCopy(chunks, v.off, data[:v.length], true)
		data = data[v.length:]
	}
	s.WriteOps.Add(uint64(len(iovs)))
	s.BytesWrite.Add(uint64(total))
	return statusOK, ""
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
	st := Stats{
		Regions:   uint64(len(s.regions)),
		UsedBytes: uint64(s.used),
	}
	s.mu.Unlock()
	st.ReadOps = s.ReadOps.Load()
	st.WriteOps = s.WriteOps.Load()
	st.BytesRead = s.BytesRead.Load()
	st.BytesWrite = s.BytesWrite.Load()
	buf := make([]byte, 48)
	binary.LittleEndian.PutUint64(buf[0:], st.Regions)
	binary.LittleEndian.PutUint64(buf[8:], st.UsedBytes)
	binary.LittleEndian.PutUint64(buf[16:], st.ReadOps)
	binary.LittleEndian.PutUint64(buf[24:], st.WriteOps)
	binary.LittleEndian.PutUint64(buf[32:], st.BytesRead)
	binary.LittleEndian.PutUint64(buf[40:], st.BytesWrite)
	return buf
}

func (s *Server) handleStat(conn net.Conn) error {
	return respond(conn, s.doStat())
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

// doProbe builds the STATS response. Shared by the v1, v2, and shm
// dispatch paths.
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

// v2req is one decoded v2 request frame handed to the worker pool.
type v2req struct {
	op       byte
	id       uint64
	regionID uint64
	offset   int64
	length   int64
	payload  []byte // pooled; recycled by the worker after execution
}

// v2resp is one response frame queued for the connection's writer.
// Exactly one of body/segs is set: body is an owned buffer (pooled
// when flagged), segs are zero-copy references into live region chunks
// that the writer hands straight to writev — a successful v2 READ
// never copies the page inside the server.
type v2resp struct {
	status byte
	id     uint64
	body   []byte
	segs   net.Buffers
	pooled bool // body came from the frame pool; writer recycles it
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

// doReadSegs is the zero-copy v2 read: it returns writev segments
// aliasing the region instead of a copied buffer.
func (s *Server) doReadSegs(regionID uint64, offset, length int64) (net.Buffers, byte, string) {
	chunks, err := s.regionAt(regionID, offset, length)
	if err != nil {
		return nil, errStatus(err), err.Error()
	}
	s.ReadOps.Add(1)
	s.BytesRead.Add(uint64(length))
	return appendChunkSegs(nil, chunks, offset, length), statusOK, ""
}

// doReadVSegs is the zero-copy batched read: one segment list covering
// every descriptor in order.
func (s *Server) doReadVSegs(regionID uint64, payload []byte) (net.Buffers, byte, string) {
	iovs, consumed, total, err := parseIovecs(payload)
	if err != nil {
		return nil, statusErr, err.Error()
	}
	if consumed != len(payload) {
		return nil, statusErr, fmt.Sprintf("readv: %d trailing payload bytes", len(payload)-consumed)
	}
	chunks, err := s.regionForBatch(regionID, iovs)
	if err != nil {
		return nil, errStatus(err), err.Error()
	}
	segs := make(net.Buffers, 0, len(iovs)+1)
	for _, v := range iovs {
		segs = appendChunkSegs(segs, chunks, v.off, v.length)
	}
	s.ReadOps.Add(uint64(len(iovs)))
	s.BytesRead.Add(uint64(total))
	return segs, statusOK, ""
}

// serveV2 runs the pipelined protocol on one connection: this goroutine
// decodes frames and feeds a bounded worker pool; workers execute
// against the region store concurrently; a single writer goroutine
// serializes responses back onto the wire (one writev per frame).
// Responses complete out of order — that is the point of request IDs.
//
// Concurrent requests touching overlapping byte ranges race exactly as
// one-sided RDMA would: the server guarantees frame integrity, not
// cross-request ordering. Callers that need ordering (the paging
// systems do: one page has one owner at a time) must not issue
// conflicting ops concurrently.
func (s *Server) serveV2(conn net.Conn, br *bufio.Reader) {
	reqs := make(chan *v2req, s.opts.Workers*2)
	resps := make(chan *v2resp, s.opts.Workers*2)
	var workWG, writeWG sync.WaitGroup
	for i := 0; i < s.opts.Workers; i++ {
		workWG.Add(1)
		go func() { //magevet:ok real network daemon: bounded per-connection worker pool for the pipelined protocol
			defer workWG.Done()
			for r := range reqs {
				resps <- s.execV2(r)
			}
		}()
	}
	writeWG.Add(1)
	go func() { //magevet:ok real network daemon: single response-writer goroutine per v2 connection
		defer writeWG.Done()
		var hdrs [writeBatch][v2RespHdrLen]byte
		iov := make(net.Buffers, 0, 2*writeBatch)
		batch := make([]*v2resp, 0, writeBatch)
		var werr error
		for r := range resps {
			// Coalesce every queued response into one writev: under a
			// deep pipeline the syscall, not the copy, is the bottleneck.
			batch = append(batch[:0], r)
			// Yield once between drain rounds so concurrently-finishing
			// workers can queue their responses into this writev (see the
			// client writeLoop for the rationale).
			for round := 0; round < 2 && len(batch) < writeBatch; round++ {
				// This goroutine is resps' only receiver, so a non-zero
				// len() guarantees a buffered element and a non-blocking
				// receive (even after close) — a plain recv is ~3x cheaper
				// than a select-with-default here.
				for len(batch) < writeBatch && len(resps) > 0 {
					batch = append(batch, <-resps)
				}
				if round == 0 && len(batch) < writeBatch {
					runtime.Gosched() // micro-batching yield on the response-writer goroutine
				}
			}
			if werr == nil {
				iov = iov[:0]
				for i, b := range batch {
					n := int64(len(b.body))
					for _, seg := range b.segs {
						n += int64(len(seg))
					}
					hdr := &hdrs[i]
					hdr[0] = b.status
					binary.LittleEndian.PutUint64(hdr[1:], b.id)
					binary.LittleEndian.PutUint64(hdr[9:], uint64(n))
					iov = append(iov, hdr[:])
					if len(b.body) > 0 {
						iov = append(iov, b.body)
					}
					iov = append(iov, b.segs...)
				}
				if _, err := iov.WriteTo(conn); err != nil {
					werr = err
				}
			}
			// Keep draining after a write error so workers never block;
			// the reader will notice the dead connection and shut down.
			for _, b := range batch {
				if b.pooled {
					PutBuf(b.body)
				}
			}
		}
	}()

	hdr := make([]byte, v2ReqHdrLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break
		}
		r := &v2req{
			op:       hdr[0],
			id:       binary.LittleEndian.Uint64(hdr[1:9]),
			regionID: binary.LittleEndian.Uint64(hdr[9:17]),
			offset:   int64(binary.LittleEndian.Uint64(hdr[17:25])),
			length:   int64(binary.LittleEndian.Uint64(hdr[25:33])),
		}
		// Ops that carry a payload declare its size in the length field.
		// An absurd size is a framing violation we cannot skip past, so
		// the connection dies; in-range payloads are always consumed so
		// the stream stays aligned even when the op is later rejected.
		if r.op == opWrite || r.op == opReadV || r.op == opWriteV {
			if r.length < 0 || r.length > maxV2Payload {
				break
			}
			if r.length > 0 {
				r.payload = getBuf(int(r.length))
				if _, err := io.ReadFull(br, r.payload); err != nil {
					PutBuf(r.payload)
					break
				}
			}
		}
		// Fast path: execute page-sized ops inline instead of bouncing
		// them through the worker pool. A 4 KiB read is cheaper than the
		// two channel handoffs and goroutine wakeup the pool costs, and
		// zero-copy reads do no memmove at all; only large transfers and
		// region registration (which allocates the region) are worth
		// shipping to a worker.
		if r.length >= 0 && r.length <= inlineExecMax && r.op != opRegister {
			resps <- s.execV2(r)
			continue
		}
		reqs <- r
	}
	close(reqs)
	workWG.Wait()
	close(resps)
	writeWG.Wait()
}

// execV2 executes one decoded request and builds its response frame,
// recycling the request payload.
func (s *Server) execV2(r *v2req) *v2resp {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	resp := &v2resp{id: r.id}
	var code byte
	var msg string
	switch r.op {
	case opRegister:
		resp.body, code, msg = s.doRegister(r.length)
	case opRead:
		resp.segs, code, msg = s.doReadSegs(r.regionID, r.offset, r.length)
	case opWrite:
		if len(r.payload) == 0 {
			code, msg = statusErr, "bad length 0"
		} else if r.length > MaxIO {
			code, msg = statusErr, fmt.Sprintf("bad length %d", r.length)
		} else {
			code, msg = s.doWrite(r.regionID, r.offset, r.payload)
		}
	case opReadV:
		resp.segs, code, msg = s.doReadVSegs(r.regionID, r.payload)
	case opWriteV:
		code, msg = s.doWriteV(r.regionID, r.payload)
	case opStat:
		resp.body, code = s.doStat(), statusOK
	case opProbe:
		resp.body, code = s.doProbe(), statusOK
	case opUnregister:
		code, msg = s.doUnregister(r.regionID)
	default:
		code, msg = statusErr, fmt.Sprintf("bad opcode %d", r.op)
	}
	if r.payload != nil {
		PutBuf(r.payload)
		r.payload = nil
	}
	resp.status = code
	if code != statusOK {
		resp.body, resp.pooled = []byte(msg), false
	}
	return resp
}
