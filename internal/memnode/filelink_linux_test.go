//go:build linux

package memnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// attachedFile attaches region id of c's server once more, for the test
// to hold the fd a client gets.
func attachedFile(t *testing.T, c *Client, id uint64, size int64) *regionFile {
	t.Helper()
	st := c.liveLink()
	if st == nil || st.files == nil {
		t.Fatal("no file link")
	}
	f, err := c.dialAttach(st.files.ext, id, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.drop)
	return f
}

// TestShmLayout pins the layout of a region file: the region's chunks,
// then the counter page, whose revoked word the server writes and whose
// counters, on a cache line of their own, the client bumps.
func TestShmLayout(t *testing.T) {
	for _, size := range []int64{1, 4096, ChunkBytes, ChunkBytes + 1, 5 * ChunkBytes} {
		ctrOff, n := regionFileBytes(size)
		if ctrOff < size || ctrOff%ChunkBytes != 0 || ctrOff-size >= ChunkBytes || n != ctrOff+ctrPageBytes {
			t.Errorf("region of %d bytes: counter page at %d, file of %d bytes", size, ctrOff, n)
		}
	}
	var c counters
	if off := unsafe.Offsetof(c.n); off != 64 || unsafe.Sizeof(c) > ctrPageBytes {
		t.Errorf("counters at %d in %d bytes; want 64, within a page", off, unsafe.Sizeof(c))
	}
}

// TestRegionFileResizeRefused: a client holds the fd of its region's
// file, and the seals make both an ftruncate that shrinks the file and
// one that grows it fail with EPERM; the server, whose exec reads the
// region through its mapping of that file, keeps serving what was
// written. (Without the seals the shrink succeeds, and the server's next
// read of the region is a SIGBUS that kills the daemon.)
func TestRegionFileResizeRefused(t *testing.T) {
	srv, c := newShmPair(t, 64<<20)
	const size = 4 << 20
	id, err := c.Register(size)
	if err != nil {
		t.Fatal(err)
	}
	page := stampedPages(1)
	for _, off := range []int64{0, size - 4096} {
		if err := c.Write(id, off, page); err != nil {
			t.Fatal(err)
		}
	}
	f := attachedFile(t, c, id, size)
	_, n := regionFileBytes(size)
	for _, to := range []int64{2 * n, n / 2, 0} {
		if err := syscall.Ftruncate(f.fd, to); !errors.Is(err, syscall.EPERM) {
			t.Errorf("ftruncate of the region file to %d bytes: %v, want EPERM", to, err)
		}
	}
	opts := fastOpts()
	opts.Transport = TransportTCP
	tc, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for _, off := range []int64{0, size - 4096} {
		body, err := tc.Read(id, off, 4096)
		if err != nil || !bytes.Equal(body, page) {
			t.Fatalf("the server's read at %d after the truncates: %v", off, err)
		}
		PutBuf(body)
	}
}

// vmHWM is this process's peak resident set, in bytes.
func vmHWM(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Skip("no VmHWM line")
	return 0
}

// TestRegionFileKeepsClientRSS: a client that writes and reads back 64
// MiB of distinct pages through the file link grows its peak resident
// set by less than 8 MiB — the pages stay in the region file, never in
// the client's mapping (a client that mapped the region would count all
// 64 MiB). The in-process server never touches them either: it maps the
// file, but the pages move by pread and pwrite.
func TestRegionFileKeepsClientRSS(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the count")
	}
	_, c := newShmPair(t, 128<<20)
	const size = 64 << 20
	id, err := c.Register(size)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	// Writing 5 to clear_refs resets the peak to the current resident set.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		t.Skipf("cannot reset the peak resident set: %v", err)
	}
	before := vmHWM(t)
	for off := int64(0); off < size; off += 4096 {
		binary.LittleEndian.PutUint64(page, uint64(off))
		if err := c.Write(id, off, page); err != nil {
			t.Fatal(err)
		}
	}
	for off := int64(0); off < size; off += 4096 {
		body, err := c.Read(id, off, 4096)
		if err != nil || binary.LittleEndian.Uint64(body) != uint64(off) {
			t.Fatalf("page at %d: %v", off, err)
		}
		PutBuf(body)
	}
	grew := vmHWM(t) - before
	t.Logf("64 MiB written and read back: peak resident set +%.1f MiB", float64(grew)/(1<<20))
	if grew >= 8<<20 {
		t.Errorf("the peak resident set grew by %.1f MiB for 64 MiB through the file link, want under 8", float64(grew)/(1<<20))
	}
}

// TestRegionFileOutlivesItsVerbs: a link that drops a file while a verb
// holds it leaves the fd open until the verb lets go, so a file the
// process opens meanwhile — which takes the lowest free fd number — can
// never be the one the verb preads.
func TestRegionFileOutlivesItsVerbs(t *testing.T) {
	_, c := newShmPair(t, 16<<20)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	page := stampedPages(1)
	if err := c.Write(id, 0, page); err != nil {
		t.Fatal(err)
	}
	f := c.liveLink().files.acquire(id) // a verb's reference
	if f == nil {
		t.Fatal("region not attached")
	}
	c.Close() // drops every file of the link
	canary, err := os.CreateTemp(t.TempDir(), "canary")
	if err != nil {
		t.Fatal(err)
	}
	defer canary.Close()
	canary.Write(bytes.Repeat([]byte{0xEE}, 4096))
	got := make([]byte, 4096)
	if err := preadFull(f.fd, got, 0); err != nil || !bytes.Equal(got, page) {
		t.Errorf("a verb holding a dropped file read %x… (%v), want its page", got[:8], err)
	}
	f.release()
	if err := preadFull(f.fd, got, 0); err == nil && bytes.Equal(got, page) {
		t.Error("the file's fd is still open after its last verb let go")
	}
}

// TestFileLinkCloseUnderVerbs: eight goroutines run page verbs on an
// attached region, each checking what it reads against what it wrote,
// while another keeps opening canary files to catch any fd number the
// link closes — and then the client is closed under them, or the server
// killed. A verb that touched a closed, reused fd would read the canary
// or write into it; neither may happen, and every verb ends.
func TestFileLinkCloseUnderVerbs(t *testing.T) {
	for _, kill := range []string{"client", "server"} {
		t.Run(kill, func(t *testing.T) {
			srv := newShmServer(t, 64<<20)
			defer srv.Close()
			opts := fastOpts()
			opts.MaxAttempts = 2
			c, err := DialOptions(srv.Addr(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const lanes, pagesEach = 8, 64
			id, err := c.Register(lanes * pagesEach * 4096)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.TransportKind(); got != "shm" {
				t.Fatalf("TransportKind = %q, want shm", got)
			}

			canary := bytes.Repeat([]byte{0xEE}, 4096)
			path := filepath.Join(t.TempDir(), "canary")
			if err := os.WriteFile(path, canary, 0o600); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var opened []*os.File // the last 64 canaries opened, held open
			var canaries int
			var openers sync.WaitGroup
			openers.Add(1)
			go func() {
				defer openers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					f, err := os.OpenFile(path, os.O_RDWR, 0)
					if err != nil {
						t.Error(err)
						return
					}
					canaries++
					if opened = append(opened, f); len(opened) > 64 {
						opened[0].Close()
						opened = opened[1:]
					}
					runtime.Gosched()
				}
			}()

			var done atomic.Int64
			var lanesWG sync.WaitGroup
			for l := 0; l < lanes; l++ {
				lanesWG.Add(1)
				go func() {
					defer lanesWG.Done()
					page := make([]byte, 4096)
					for i := 0; ; i++ {
						off := int64(l*pagesEach+i%pagesEach) * 4096
						binary.LittleEndian.PutUint64(page, uint64(i)<<8|uint64(l))
						if err := c.Write(id, off, page); err != nil {
							return
						}
						body, err := c.Read(id, off, 4096)
						if err != nil {
							return
						}
						if bytes.Equal(body[:16], canary[:16]) {
							t.Errorf("lane %d read the canary at %d: a verb used a closed fd", l, off)
						} else if !bytes.Equal(body, page) {
							t.Errorf("lane %d read back other bytes than it wrote at %d", l, off)
						}
						PutBuf(body)
						done.Add(1)
					}
				}()
			}
			for done.Load() < 2000 {
				time.Sleep(time.Millisecond)
			}
			if kill == "client" {
				c.Close()
			} else {
				srv.Close()
			}
			ended := make(chan struct{})
			go func() { lanesWG.Wait(); close(ended) }()
			select {
			case <-ended:
			case <-time.After(30 * time.Second):
				t.Fatal("verbs still running 30 s after the kill")
			}
			close(stop)
			openers.Wait()
			for _, f := range opened {
				f.Close()
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, canary) {
				t.Errorf("the canary file changed (%v): a verb wrote through a closed fd", err)
			}
			t.Logf("%d verb pairs, %d canary fds opened", done.Load(), canaries)
		})
	}
}

// fakeAttach serves attach requests on a unix socket with answer, which
// writes the response (and whatever fds) to each connection.
func fakeAttach(t *testing.T, answer func(uc *net.UnixConn)) helloExt {
	t.Helper()
	path := filepath.Join(t.TempDir(), "attach.sock")
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			uc, err := ln.AcceptUnix()
			if err != nil {
				return
			}
			var req [attachReqLen]byte
			if _, err := readFullConn(uc, req[:]); err == nil {
				answer(uc)
			}
			uc.Close()
		}
	}()
	return helloExt{shm: true, token: 7, path: path}
}

// openFiles counts this process's open file descriptors that are not
// sockets (a fake server may still be closing its end of one).
func openFiles(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range ents {
		if to, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && !strings.HasPrefix(to, "socket:") {
			n++
		}
	}
	return n
}

// TestAttachHandshake: what each side of the attach does with a request
// or an answer it must not take. The server refuses a bad magic, a bad
// token and an unknown region without sending an fd; the client refuses
// a refusal that carries an fd, a file of the wrong size and one not
// sealed against resizing, keeps the first of several fds, and closes
// every fd it does not keep.
func TestAttachHandshake(t *testing.T) {
	srv, c := newShmPair(t, 64<<20)
	const size = 1 << 20
	id, err := c.Register(size)
	if err != nil {
		t.Fatal(err)
	}
	ext := c.liveLink().files.ext

	server := []struct {
		name       string
		magic, tok uint64
		region     uint64
		status     byte
	}{
		{"bad magic", 0xBAD, ext.token, id, statusErr},
		{"bad token", attachMagic, ext.token + 1, id, statusErr},
		{"unknown region", attachMagic, ext.token, id + 1000, statusErrRegion},
		{"the region", attachMagic, ext.token, id, statusOK},
	}
	for _, tc := range server {
		uc, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: srv.ShmAddr(), Net: "unix"})
		if err != nil {
			t.Fatal(err)
		}
		var req [attachReqLen]byte
		binary.LittleEndian.PutUint64(req[0:], tc.magic)
		binary.LittleEndian.PutUint64(req[8:], tc.tok)
		binary.LittleEndian.PutUint64(req[16:], tc.region)
		uc.Write(req[:])
		var resp [attachRespLen]byte
		fd, err := shmRecvFd(uc, resp[:])
		uc.Close()
		if err != nil || resp[0] != tc.status || (fd >= 0) != (tc.status == statusOK) {
			t.Errorf("server, %s: status %d, fd %d, %v; want status %d and an fd only with OK", tc.name, resp[0], fd, err, tc.status)
		}
		if fd >= 0 {
			closeFd(fd)
		}
	}

	regionFd := attachedFile(t, c, id, size).fd
	unsealed, err := os.CreateTemp(t.TempDir(), "unsealed")
	if err != nil {
		t.Fatal(err)
	}
	defer unsealed.Close()
	if _, n := regionFileBytes(size); unsealed.Truncate(n) != nil {
		t.Fatal("truncate")
	}
	short, err := createRegionFile(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFd(short)
	ok := func(fds ...int) func(*net.UnixConn) {
		return func(uc *net.UnixConn) {
			var resp [attachRespLen]byte
			resp[0] = statusOK
			binary.LittleEndian.PutUint64(resp[1:], size)
			var oob []byte
			if len(fds) > 0 {
				oob = syscall.UnixRights(fds...)
			}
			uc.WriteMsgUnix(resp[:], oob, nil)
		}
	}
	client := []struct {
		name   string
		answer func(*net.UnixConn)
		keep   bool
	}{
		{"a refusal carrying an fd", func(uc *net.UnixConn) {
			var resp [attachRespLen]byte
			resp[0], resp[1] = statusErr, 2
			copy(resp[2:], "no")
			uc.WriteMsgUnix(resp[:], syscall.UnixRights(regionFd), nil)
		}, false},
		{"an answer of another size", func(uc *net.UnixConn) {
			var resp [attachRespLen]byte
			resp[0] = statusOK
			binary.LittleEndian.PutUint64(resp[1:], 2*size)
			uc.WriteMsgUnix(resp[:], syscall.UnixRights(regionFd), nil)
		}, false},
		{"no fd", ok(), false},
		{"a short file", ok(short), false},
		{"an unsealed file", ok(int(unsealed.Fd())), false},
		{"surplus fds", ok(regionFd, short, int(unsealed.Fd())), true},
		{"the region's file", ok(regionFd), true},
	}
	for _, tc := range client {
		ext := fakeAttach(t, tc.answer)
		before := openFiles(t)
		f, err := c.dialAttach(ext, id, size)
		if (err == nil) != tc.keep {
			t.Errorf("client, %s: %v", tc.name, err)
		}
		kept := 0
		if f != nil {
			kept = 1
			f.drop()
		}
		if after := openFiles(t); after != before {
			t.Errorf("client, %s: %d fds open, %d before (and %d kept, dropped since)", tc.name, after, before, kept)
		}
	}
}

// TestBufPoolAllocatesNothing: once both pools are warm, a getBuf and
// the PutBuf of what it returned allocate nothing — the box a buffer is
// pooled in is recycled like the buffer.
func TestBufPoolAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	PutBuf(getBuf(4096))
	if n := testing.AllocsPerRun(1000, func() { PutBuf(getBuf(4096)) }); n != 0 {
		t.Errorf("getBuf + PutBuf: %.2f allocations, want 0", n)
	}
}

// TestFileLinkAttachesUnregisteredRegion: a client that uses a region
// another client registered attaches its file before its first
// synchronous page verb, so that its reads and writes bypass the
// server's exec too — whose own counters do not move while STAT, off the
// counter page, counts every op — and tries once: a region the server
// does not have rides the frames, and is refused there.
func TestFileLinkAttachesUnregisteredRegion(t *testing.T) {
	srv, owner := newShmPair(t, 64<<20)
	id, err := owner.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	execReads, execWrites := srv.ops.n[0].Load(), srv.ops.n[1].Load()
	for i := 0; i < 10; i++ {
		roundtripRegion(t, c, id)
	}
	after, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if d := deltaOf(before, after); d.readOps != 10 || d.writeOps != 10 {
		t.Errorf("STAT counted %d reads and %d writes, want 10 of each", d.readOps, d.writeOps)
	}
	if r, w := srv.ops.n[0].Load()-execReads, srv.ops.n[1].Load()-execWrites; r != 0 || w != 0 {
		t.Errorf("the server's exec ran %d reads and %d writes of a region the client could attach", r, w)
	}
	if _, err := c.Read(id+1000, 0, 4096); !IsTerminal(err) {
		t.Errorf("read of a region the server does not have: %v, want a terminal refusal", err)
	}
	if m := c.Metrics(); m.ShmConnects != 1 || m.ShmFallbacks != 0 {
		t.Errorf("%d shm connects, %d fallbacks; want 1 and 0", m.ShmConnects, m.ShmFallbacks)
	}
}
