//go:build linux

// Shared-memory transport: Linux-specific plumbing — anonymous segment
// creation (memfd_create, with an unlinked tmpfile fallback for kernels
// or architectures without it), mmap/munmap, and fd passing over
// unix-domain sockets via SCM_RIGHTS. Everything here is stdlib-only.
package memnode

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// ShmSupported reports whether this platform has the shared-memory ring.
const ShmSupported = true

// shmCreateSegment returns a file descriptor backing an anonymous
// shared segment of n bytes.
func shmCreateSegment(n int64) (int, error) {
	if sysMemfdCreate != 0 {
		name, err := syscall.BytePtrFromString("memnode-shm")
		if err == nil {
			const mfdCloexec = 0x1
			fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
			if errno == 0 {
				if err := syscall.Ftruncate(int(fd), n); err != nil {
					_ = syscall.Close(int(fd)) // best-effort cleanup on the error path
					return -1, fmt.Errorf("shm: ftruncate memfd: %w", err)
				}
				return int(fd), nil
			}
		}
	}
	// Fallback: an unlinked temp file gives the same anonymous,
	// fd-passable backing without memfd_create.
	f, err := os.CreateTemp("", "memnode-shm-*")
	if err != nil {
		return -1, fmt.Errorf("shm: create segment backing: %w", err)
	}
	name := f.Name()
	fd, err := syscall.Dup(int(f.Fd()))
	_ = f.Close() // the dup keeps the backing alive
	_ = os.Remove(name)
	if err != nil {
		return -1, fmt.Errorf("shm: dup segment fd: %w", err)
	}
	syscall.CloseOnExec(fd)
	if err := syscall.Ftruncate(fd, n); err != nil {
		_ = syscall.Close(fd) // best-effort cleanup on the error path
		return -1, fmt.Errorf("shm: ftruncate segment: %w", err)
	}
	return fd, nil
}

// shmMap maps n bytes of fd shared read-write.
func shmMap(fd int, n int64) ([]byte, error) {
	return syscall.Mmap(fd, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func shmUnmap(seg []byte) {
	_ = syscall.Munmap(seg) // unmap failure leaves a dead mapping; nothing actionable
}

// shmFdSize returns the size of the file backing fd (authoritative,
// unlike any size the peer claims).
func shmFdSize(fd int) (int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return 0, err
	}
	return st.Size, nil
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
// segment; any remaining message bytes are read plainly). Extra fds a
// hostile peer smuggles in are closed, never leaked.
func shmRecvFd(uc *net.UnixConn, msg []byte) (int, error) {
	oob := make([]byte, 128)
	n, oobn, _, _, err := uc.ReadMsgUnix(msg, oob)
	if err != nil {
		return -1, err
	}
	fd := -1
	closeAll := func(fds []int) {
		for _, f := range fds {
			_ = syscall.Close(f) // surplus descriptors from a hostile peer
		}
	}
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
					closeAll([]int{f})
				}
			}
		}
	}
	for n < len(msg) {
		m, err := uc.Read(msg[n:])
		if err != nil {
			if fd != -1 {
				closeAll([]int{fd})
			}
			return -1, err
		}
		n += m
	}
	if fd == -1 {
		// No fd attached: a refusal response. The caller decides from
		// the message body whether that is an error.
		return -1, nil
	}
	syscall.CloseOnExec(fd)
	return fd, nil
}

func closeFd(fd int) error { return syscall.Close(fd) }

// shmOSYield gives the CPU to whatever else the kernel has to run on
// it: sched_yield. Through Syscall, not RawSyscall, so that the runtime
// may hand off the P for the duration.
func shmOSYield() {
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // cannot fail
}
