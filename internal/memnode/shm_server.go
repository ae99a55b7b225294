// Shared-memory transport: server side.
//
// The server announces shm support in its HELLO response (a unix-domain
// socket path plus a per-server token). A client that wants the shm
// data plane dials that socket, proves it spoke to this server instance
// by echoing the token, and receives a freshly created memfd segment
// via SCM_RIGHTS. From then on the unix connection carries only
// doorbell bytes and peer-death notification (EOF); all requests,
// responses, and page data move through the mapped segment.
//
// The verbs are Server.exec, their one implementation, which the TCP
// frames run too: shmConn.exec below is the ring's framing of it — a
// submission becomes a request, the reply goes back through the
// submission's extent — so the two transports cannot drift
// semantically. Safety against a hostile peer sharing the mapping:
//
//   - extents are bounds-checked against the arena before any access
//     (unsigned subtracted form), so no descriptor can point the server
//     outside its own mapping;
//   - descriptor tables are copied into private memory before parsing,
//     so a client racing writes into the arena cannot change a table
//     between validation and use (TOCTOU);
//   - implausible ring indices poison the connection (close + unmap),
//     never index out of bounds;
//   - region validation failures are reported as status errors through
//     the completion ring, exactly like TCP, so an honest client's
//     errors keep flowing even while another extent is being abused.
package memnode

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"
)

// Shm handshake framing (unix socket, little-endian).
const (
	shmHelloReqLen  = 24 // magic(8) token(8) window(8)
	shmHelloRespLen = 33 // status(1) entries(8) arenaOff(8) arenaBytes(8) segBytes(8); refusal: status(1) msgLen(1) msg(≤31)
)

// serveShmConn runs one shm connection: handshake (create + pass the
// segment), then the submission-ring consumer loop until the peer dies,
// the ring turns hostile, or the server closes.
func (s *Server) serveShmConn(uc *net.UnixConn) {
	// The handshake is bounded so a dialer that never speaks cannot park
	// a handler forever.
	_ = uc.SetDeadline(time.Now().Add(5 * time.Second)) //magevet:ok handshake deadline on a real unix socket
	var req [shmHelloReqLen]byte
	if _, err := readFullConn(uc, req[:]); err != nil {
		return
	}
	magic := binary.LittleEndian.Uint64(req[0:])
	token := binary.LittleEndian.Uint64(req[8:])
	window := int64(binary.LittleEndian.Uint64(req[16:]))
	if magic != shmHelloMagic || token != s.shmToken {
		_ = writeShmRefusal(uc, "bad shm hello")
		return
	}
	if window < 1 || window > shmMaxWindow {
		_ = writeShmRefusal(uc, fmt.Sprintf("bad window %d", window))
		return
	}
	layout := shmLayoutFor(int(window), s.shmToken)
	fd, err := shmCreateSegment(layout.segBytes)
	if err != nil {
		_ = writeShmRefusal(uc, "segment creation failed")
		return
	}
	seg, err := shmMap(fd, layout.segBytes)
	if err != nil {
		_ = closeFd(fd)
		_ = writeShmRefusal(uc, "segment map failed")
		return
	}
	layout.stamp(seg)
	var resp [shmHelloRespLen]byte
	resp[0] = statusOK
	binary.LittleEndian.PutUint64(resp[1:], layout.entries)
	binary.LittleEndian.PutUint64(resp[9:], uint64(layout.arenaOff))
	binary.LittleEndian.PutUint64(resp[17:], uint64(layout.arenaBytes))
	binary.LittleEndian.PutUint64(resp[25:], uint64(layout.segBytes))
	err = shmSendFd(uc, resp[:], fd)
	_ = closeFd(fd) // both sides hold mappings (or the send failed); the fd itself is done
	if err != nil {
		shmUnmap(seg)
		return
	}
	_ = uc.SetDeadline(time.Time{}) // steady state: reads block until doorbell or peer death
	h := &shmConn{
		s:     s,
		conn:  uc,
		seg:   seg,
		arena: seg[layout.arenaOff : layout.arenaOff+layout.arenaBytes],
		sq:    newShmRing(seg, shmHdrBytes, layout.entries, shmOffSqCons, shmOffSqProd),
		cq:    newShmRing(seg, shmHdrBytes+int64(layout.entries)*shmSlotBytes, layout.entries, shmOffCqProd, shmOffCqCons),
	}
	h.srvSleep = shmWord(seg, shmOffSrvSleep)
	h.cliSleep = shmWord(seg, shmOffCliSleep)
	idle := uint32(shmSpinYields)
	if s.shmParkOnly.Load() {
		idle = 0
	}
	h.idle.init(idle, &h.waits)
	// Live connections are kept so that their wait counters can be read.
	s.mu.Lock()
	s.shmConns[h] = struct{}{}
	s.mu.Unlock()
	h.loop()
	s.mu.Lock()
	delete(s.shmConns, h)
	s.mu.Unlock()
	shmUnmap(seg)
}

func writeShmRefusal(uc *net.UnixConn, msg string) error {
	var resp [shmHelloRespLen]byte
	resp[0] = statusErr
	if len(msg) > 31 {
		msg = msg[:31]
	}
	resp[1] = byte(len(msg))
	copy(resp[2:], msg)
	_, err := uc.Write(resp[:])
	return err
}

// readFullConn is io.ReadFull without the bufio layer the TCP paths use.
func readFullConn(conn net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// shmConn is one live shm connection on the server.
type shmConn struct {
	s     *Server
	conn  *net.UnixConn
	seg   []byte
	arena []byte
	sq    shmRing // consumer view of the submission ring
	cq    shmRing // producer view of the completion ring

	srvSleep *uint64
	cliSleep *uint64

	// idle is the loop's yield budget (shm_wait.go) before it parks on
	// the doorbell socket; waits counts what this connection's waits
	// cost.
	idle   shmWait
	waits  shmWaitStats
	bellDl shmDeadline // write deadline bounding doorbell writes
}

// shmBellTimeout bounds a doorbell write: a client that stops draining
// its socket for this long has its connection poisoned.
const shmBellTimeout = 5 * time.Second

// sqReady reports whether the loop has a reason to stop waiting: a
// published submission, or a ring index process will reject.
func (h *shmConn) sqReady() bool {
	avail, err := h.sq.available()
	return avail > 0 || err != nil
}

// loop consumes submissions until the connection dies. Between bursts
// it yields within its budget (which pays when the client runs
// meanwhile), then parks on a doorbell read — which is also how peer
// death (EOF) and server shutdown (Close closes the conn) are detected.
func (h *shmConn) loop() {
	var db [1]byte
	for {
		n, err := h.process()
		if err != nil {
			return // hostile ring state: poison the connection
		}
		if n > 0 {
			continue
		}
		if h.idle.spin(h.sqReady) {
			continue
		}
		shmAnnounceSleep(h.srvSleep)
		if h.sqReady() {
			shmCancelSleep(h.srvSleep)
			continue
		}
		if _, err := h.conn.Read(db[:]); err != nil {
			return // peer death or server Close
		}
		shmCancelSleep(h.srvSleep)
	}
}

// process consumes every available submission, executes it, and
// publishes its completion. A non-nil error means the ring state or a
// descriptor was hostile and the connection must be poisoned.
func (h *shmConn) process() (int, error) {
	avail, err := h.sq.available()
	if err != nil {
		return 0, err
	}
	done := 0
	// Submission-consumer index publication is batched: one shared store
	// per burst (the client's room check lags by at most one burst, which
	// a 2x-window ring absorbs). Completions still publish per entry so
	// the client can start draining while the burst is in progress.
	defer h.sq.commit()
	for i := uint64(0); i < avail; i++ {
		e := decodeSQE(h.sq.slot(h.sq.local))
		h.sq.advanceLocal()
		if !extentInArena(e.extOff, e.extCap, int64(len(h.arena))) {
			return done, fmt.Errorf("shm: extent [%d,+%d) outside arena %d", e.extOff, e.extCap, len(h.arena))
		}
		status, n := h.exec(e)
		if err := h.complete(cqEntry{status: status, id: e.id, length: n}); err != nil {
			return done, err
		}
		done++
	}
	if done > 0 {
		return done, h.ringClient()
	}
	return done, nil
}

// ringClient writes the client's doorbell byte, but only when its
// completer announced it is parking. The write is bounded so that a
// client which never drains its socket poisons the connection.
func (h *shmConn) ringClient() error {
	if !shmShouldWake(h.cliSleep) {
		return nil
	}
	if dl, ok := h.bellDl.due(shmBellTimeout); ok {
		_ = h.conn.SetWriteDeadline(dl) // a failed set surfaces on the write below
	}
	h.waits.doorbells.Add(1)
	_, err := h.conn.Write(shmBell)
	return err
}

// complete publishes one completion entry. The ring holds twice the
// calls the client may have in flight, so a full one means the client
// overran it — submitted past its window, or stopped consuming — and
// the connection is poisoned at once.
func (h *shmConn) complete(e cqEntry) error {
	if err := h.cq.room(); err != nil {
		return err
	}
	encodeCQE(h.cq.slot(h.cq.local), e)
	h.cq.publish()
	return nil
}

// exec is the ring's framing of one submission whose extent process has
// validated: the payload is the head of the extent, the reply — data,
// REGISTER ids, STAT blobs, error messages alike — lands in the extent
// from its first byte, and may be as long as the extent is. It returns
// the completion's status and length.
func (h *shmConn) exec(e sqEntry) (byte, int64) {
	ext := h.arena[e.extOff : e.extOff+e.extCap]
	req := request{op: e.op, regionID: e.regionID, offset: e.offset, length: e.length, room: int64(len(ext))}
	if carriesPayload(e.op) {
		// A length the extent cannot hold locates what there is; exec
		// refuses the request for the difference.
		var shared []byte
		shared, req.data = cutPayload(e.op, ext[:max(0, min(e.length, req.room))])
		if shared != nil {
			// The extent stays client-writable: the table is parsed from a
			// private copy, so that it cannot change between validation and
			// use (and a READV's reply overwrites it).
			req.table = getBuf(len(shared))
			copy(req.table, shared)
		}
	}
	var rp reply
	h.s.exec(&req, &rp)
	if req.table != nil {
		PutBuf(req.table)
	}
	if rp.total > 0 {
		rp.copyTo(ext)
		return rp.status, rp.total
	}
	return rp.status, int64(copy(ext, rp.body)) // an error message is cut to fit
}

// setupShm creates the shm negotiation socket and the per-server token
// clients must echo to prove they negotiated against this instance (a
// restarted server mints a new token, so stale clients re-negotiate
// over TCP instead of attaching to the wrong segment namespace).
func (s *Server) setupShm() error {
	if !ShmSupported {
		return fmt.Errorf("memnode: shm transport unsupported on this platform")
	}
	var tok [8]byte
	if _, err := cryptorand.Read(tok[:]); err != nil {
		return fmt.Errorf("memnode: shm token: %w", err)
	}
	s.shmToken = binary.LittleEndian.Uint64(tok[:])
	path := s.opts.ShmPath
	if path == "" {
		_, port, err := net.SplitHostPort(s.ln.Addr().String())
		if err != nil {
			port = "0"
		}
		path = filepath.Join(os.TempDir(), "memnode-shm-"+port+".sock")
	}
	// A stale socket file from a previous (dead) server at the same
	// address would fail the listen; remove it. A restarted server
	// reusing the port lands on the same path, which is exactly what the
	// chaos/reconnect path needs.
	_ = os.Remove(path) // best-effort: ListenUnix reports any real problem
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		return fmt.Errorf("memnode: shm listen: %w", err)
	}
	s.shmLn = ln
	s.shmPath = path
	return nil
}

// ShmAddr returns the shm negotiation socket path, or "" when the shm
// transport is disabled.
func (s *Server) ShmAddr() string { return s.shmPath }

// shmAcceptLoop accepts shm negotiation connections, mirroring the TCP
// accept loop (tracked in conns so Close unblocks parked handlers).
func (s *Server) shmAcceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.shmLn.AcceptUnix()
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
		//magevet:ok real network daemon: one handler goroutine per shm connection
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close() // handler is done; best-effort teardown
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveShmConn(conn)
		}()
	}
}

// helloBody builds the v2 HELLO response payload: the mandatory
// magic+version, then — when the shm transport is live — a flags word,
// the per-server token, and the negotiation socket path. Clients that
// predate the extension validate only the first 16 bytes and ignore
// the rest, so advertising shm is invisible to them.
func (s *Server) helloBody() []byte {
	if s.shmLn == nil {
		resp := make([]byte, helloRespLen)
		binary.LittleEndian.PutUint64(resp[0:], helloMagic)
		binary.LittleEndian.PutUint64(resp[8:], protoV2)
		return resp
	}
	path := s.shmPath
	resp := make([]byte, helloRespLen+8+8+2+len(path))
	binary.LittleEndian.PutUint64(resp[0:], helloMagic)
	binary.LittleEndian.PutUint64(resp[8:], protoV2)
	binary.LittleEndian.PutUint64(resp[16:], helloFlagShm)
	binary.LittleEndian.PutUint64(resp[24:], s.shmToken)
	binary.LittleEndian.PutUint16(resp[32:], uint16(len(path)))
	copy(resp[34:], path)
	return resp
}
