//go:build linux

// The file link's Linux plumbing: sealed memfd region files, the one
// page a client maps of one, fd passing over unix-domain sockets via
// SCM_RIGHTS, and the preads and pwrites a page verb is. Stdlib only.
package memnode

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"unsafe"
)

// ShmSupported reports whether this platform has the file link.
const ShmSupported = true

// memfd_create flags and the seals of fcntl(2).
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	sealSeal        = 0x1
	sealShrink      = 0x2
	sealGrow        = 0x4
)

// createRegionFile returns a memfd of n bytes, sealed against shrinking,
// growing and further sealing. Without memfd_create or seals there is no
// region file: a file a client could truncate would let it SIGBUS the
// server's mapping.
func createRegionFile(n int64) (int, error) {
	if sysMemfdCreate == 0 {
		return -1, errShmUnsupported
	}
	name, err := syscall.BytePtrFromString("memnode-region")
	if err != nil {
		return -1, err
	}
	r, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return -1, fmt.Errorf("memfd_create: %w", errno)
	}
	fd := int(r)
	if err := syscall.Ftruncate(fd, n); err != nil {
		_ = syscall.Close(fd) // best-effort cleanup on the error path
		return -1, fmt.Errorf("ftruncate region file: %w", err)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fAddSeals, sealShrink|sealGrow|sealSeal); errno != 0 {
		_ = syscall.Close(fd) // best-effort cleanup on the error path
		return -1, fmt.Errorf("seal region file: %w", errno)
	}
	return fd, nil
}

// allocRegionFile backs a region of nChunks chunks with a sealed region
// file the server maps shared: its chunks carved from the mapping, and
// the counter page behind them. release unmaps the file and closes it.
func allocRegionFile(nChunks int) ([][]byte, func(), hostFile, error) {
	ctrOff, n := regionFileBytes(int64(nChunks) * ChunkBytes)
	fd, err := createRegionFile(n)
	if err != nil {
		return nil, nil, hostFile{}, err
	}
	m, err := syscall.Mmap(fd, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		_ = syscall.Close(fd) // best-effort cleanup on the error path
		return nil, nil, hostFile{}, err
	}
	chunks := make([][]byte, nChunks)
	for i := range chunks {
		chunks[i] = m[i*ChunkBytes : (i+1)*ChunkBytes : (i+1)*ChunkBytes]
	}
	release := func() {
		_ = syscall.Munmap(m) // a dead mapping is the only fallback; nothing actionable
		_ = syscall.Close(fd) // clients that attached hold fds of their own
	}
	return chunks, release, hostFile{fd: fd, ctr: (*counters)(unsafe.Pointer(&m[ctrOff]))}, nil
}

// checkRegionFile holds a received fd to the file a region of size bytes
// has: exactly as long as the layout says, and sealed against shrinking
// and growing — so that the counter page the client maps cannot be cut
// from under it, which would SIGBUS the client.
func checkRegionFile(fd int, size int64) error {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return err
	}
	if _, want := regionFileBytes(size); st.Size != want {
		return fmt.Errorf("region file of %d bytes, want %d", st.Size, want)
	}
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 {
		return fmt.Errorf("region file seals: %w", errno)
	}
	if seals&(sealShrink|sealGrow) != sealShrink|sealGrow {
		return fmt.Errorf("region file not sealed against resizing (seals %#x)", seals)
	}
	return nil
}

// mapCounterPage maps the counter page of a region file of size bytes:
// the only page of a region file a client maps.
func mapCounterPage(fd int, size int64) ([]byte, *counters, error) {
	ctrOff, _ := regionFileBytes(size)
	m, err := syscall.Mmap(fd, ctrOff, ctrPageBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return m, (*counters)(unsafe.Pointer(&m[0])), nil
}

func unmapPage(m []byte) {
	_ = syscall.Munmap(m) // unmap failure leaves a dead mapping; nothing actionable
}

// preadFull reads len(b) bytes of fd at off. Where rawFileIO holds, the
// call is a raw pread64, which skips the scheduler's syscall entry and
// exit: a region file is a sealed memfd in RAM, so the call copies bytes
// and returns, and never blocks for long enough to need its P handed off.
func preadFull(fd int, b []byte, off int64) error {
	for len(b) > 0 {
		var n int
		var err error
		if rawFileIO {
			r, _, e := syscall.RawSyscall6(syscall.SYS_PREAD64, uintptr(fd), uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(off), 0, 0)
			n, err = int(r), errnoErr(e)
		} else {
			n, err = syscall.Pread(fd, b, off)
		}
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return err
		case n == 0:
			return io.ErrUnexpectedEOF
		}
		b, off = b[n:], off+int64(n)
	}
	return nil
}

// pwriteFull writes b to fd at off: a raw pwrite64 where rawFileIO holds,
// as preadFull's read is.
func pwriteFull(fd int, b []byte, off int64) error {
	for len(b) > 0 {
		var n int
		var err error
		if rawFileIO {
			r, _, e := syscall.RawSyscall6(syscall.SYS_PWRITE64, uintptr(fd), uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(off), 0, 0)
			n, err = int(r), errnoErr(e)
		} else {
			n, err = syscall.Pwrite(fd, b, off)
		}
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return err
		case n == 0:
			return io.ErrShortWrite
		}
		b, off = b[n:], off+int64(n)
	}
	return nil
}

// errnoErr is a raw call's errno as the error a syscall wrapper returns:
// nil for none.
func errnoErr(e syscall.Errno) error {
	if e != 0 {
		return e
	}
	return nil
}

// shmSendFd writes msg and attaches fd as SCM_RIGHTS ancillary data.
func shmSendFd(uc *net.UnixConn, msg []byte, fd int) error {
	rights := syscall.UnixRights(fd)
	n, oobn, err := uc.WriteMsgUnix(msg, rights, nil)
	if err != nil {
		return err
	}
	if n != len(msg) || oobn != len(rights) {
		return fmt.Errorf("shm: short fd send (%d/%d data, %d/%d oob)", n, len(msg), oobn, len(rights))
	}
	return nil
}

// shmRecvFd reads exactly len(msg) bytes into msg and extracts a single
// passed fd from the ancillary data (which arrives with the first data
// segment; any remaining message bytes are read plainly), or -1 when
// none came. Extra fds a hostile peer smuggles in are closed, never
// leaked.
func shmRecvFd(uc *net.UnixConn, msg []byte) (int, error) {
	oob := make([]byte, 128)
	n, oobn, _, _, err := uc.ReadMsgUnix(msg, oob)
	if err != nil {
		return -1, err
	}
	fd := -1
	if oobn > 0 {
		msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
		if err != nil {
			return -1, fmt.Errorf("shm: parse control message: %w", err)
		}
		for _, m := range msgs {
			fds, err := syscall.ParseUnixRights(&m)
			if err != nil {
				continue
			}
			for _, f := range fds {
				if fd == -1 {
					fd = f
				} else {
					_ = syscall.Close(f) // a surplus descriptor from a hostile peer
				}
			}
		}
	}
	for n < len(msg) {
		m, err := uc.Read(msg[n:])
		if err != nil {
			if fd != -1 {
				_ = syscall.Close(fd) // the message never arrived whole
			}
			return -1, err
		}
		n += m
	}
	if fd != -1 {
		syscall.CloseOnExec(fd)
	}
	return fd, nil
}

func closeFd(fd int) error { return syscall.Close(fd) }
