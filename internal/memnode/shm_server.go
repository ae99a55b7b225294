// The file link, server side.
//
// A server that offers shm backs every region with a memfd (a "region
// file": the region's chunks, then one counter page), sealed against
// shrinking and growing before any fd leaves the process, and maps it
// shared for its own exec. The HELLO response advertises a unix-domain
// socket and a per-server token. A client attaches a region by dialing
// that socket, sending the token and the region's ID, and receiving the
// region file's fd over SCM_RIGHTS: the fd is the rkey. From then on its
// READ, WRITE, READV and WRITEV on the region are preads and pwrites of
// the file on its own goroutine (shm_client.go), which this server never
// sees — it is as passive as the paper's RDMA-registered memory node.
// Everything else, and page verbs on regions not attached, rides the TCP
// frames.
//
// What the server still owes the client's verbs:
//
//   - STAT counts them as exec would: each region file's counter page
//     holds four counters the client bumps atomically, and doStat sums
//     the counter pages of every region file this server made;
//   - a region that goes — UNREGISTER, or the server closing — sets the
//     revoked word of its counter page, and a client checks it before
//     each verb, so that it stops using a file whose region is gone;
//   - the seals make a hostile client's ftruncate fail with EPERM, so no
//     client can pull pages out from under the server's mapping (which
//     would SIGBUS the daemon on its next access).
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

// attachMagic opens an attach request on the unix socket; it is distinct
// from the TCP magic so stray traffic cannot start one.
const attachMagic uint64 = 0x4d48_5345_4741_4d21 // "!MAGESHM" (LE)

// helloFlagShm, set in the flags word of an extended TCP HELLO
// response, advertises the attach socket.
const helloFlagShm uint64 = 1 << 0

// Attach framing (unix socket, little-endian): one exchange per
// connection.
//
//	request:  magic(8) token(8) regionID(8)
//	response: status(1) size(8), the region file's fd attached; or
//	          status(1) msgLen(1) msg(≤31), no fd: a refusal, with
//	          statusErrRegion when the server has no such region
const (
	attachReqLen  = 24
	attachRespLen = 33
)

// ctrPageBytes is the counter page at the end of a region file.
const ctrPageBytes = 4096

// regionFileBytes is the layout of the file behind a region of size
// bytes: the region's chunks, then the counter page at ctrOff.
func regionFileBytes(size int64) (ctrOff, fileBytes int64) {
	ctrOff = (size + ChunkBytes - 1) / ChunkBytes * ChunkBytes
	return ctrOff, ctrOff + ctrPageBytes
}

// hostFile is a region file on the server: the fd it sends to attaching
// clients, and the counter page in its mapping.
type hostFile struct {
	fd  int
	ctr *counters
}

// serveAttach answers one attach request: the region file's fd, or a
// refusal.
func (s *Server) serveAttach(uc *net.UnixConn) {
	// Bounded, so that a dialer that never speaks cannot park a handler.
	_ = uc.SetDeadline(time.Now().Add(5 * time.Second)) //magevet:ok handshake deadline on a real unix socket
	var req [attachReqLen]byte
	if _, err := readFullConn(uc, req[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint64(req[0:]) != attachMagic || binary.LittleEndian.Uint64(req[8:]) != s.shmToken {
		_ = refuseAttach(uc, statusErr, "bad attach request")
		return
	}
	id := binary.LittleEndian.Uint64(req[16:])
	s.mu.Lock()
	f, ok := s.files[id]
	size := s.sizes[id]
	_, known := s.regions[id]
	s.mu.Unlock()
	switch {
	case !known:
		_ = refuseAttach(uc, statusErrRegion, "unknown region")
		return
	case !ok:
		_ = refuseAttach(uc, statusErr, "region has no file")
		return
	}
	// The fd stays open until Close, which waits for this handler.
	var resp [attachRespLen]byte
	resp[0] = statusOK
	binary.LittleEndian.PutUint64(resp[1:], uint64(size))
	_ = shmSendFd(uc, resp[:], f.fd) // a failed send leaves the client to refuse the attach
}

func refuseAttach(uc *net.UnixConn, status byte, msg string) error {
	var resp [attachRespLen]byte
	resp[0] = status
	msg = msg[:min(len(msg), attachRespLen-2)]
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

// setupShm creates the attach socket and the per-server token clients
// must echo to prove they negotiated against this instance (a restarted
// server mints a new token, so a stale client cannot attach).
func (s *Server) setupShm() error {
	if !ShmSupported {
		return errShmUnsupported
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

// ShmAddr returns the attach socket path, or "" when the server does not
// offer shm.
func (s *Server) ShmAddr() string { return s.shmPath }

// shmAcceptLoop accepts attach connections, mirroring the TCP accept loop
// (tracked in conns so Close unblocks their handlers).
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
		//magevet:ok real network daemon: one handler goroutine per attach
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close() // handler is done; best-effort teardown
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveAttach(conn)
		}()
	}
}

// helloBody builds the v2 HELLO response payload: the mandatory
// magic+version, then — when the server offers shm — a flags word, the
// per-server token, and the attach socket path. Clients that predate
// the extension validate only the first 16 bytes and ignore the rest,
// so advertising shm is invisible to them.
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
