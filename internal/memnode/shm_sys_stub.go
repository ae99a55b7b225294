//go:build !linux

// Shared-memory transport stubs for platforms without memfd/SCM_RIGHTS
// support in this codebase. Negotiation sees ShmSupported=false and
// falls back to TCP v2 transparently; forcing Options.Transport to shm
// surfaces errShmUnsupported.
package memnode

import (
	"net"
)

// ShmSupported reports whether this platform has the shared-memory ring.
const ShmSupported = false

func shmCreateSegment(n int64) (int, error)                { return -1, errShmUnsupported }
func shmMap(fd int, n int64) ([]byte, error)               { return nil, errShmUnsupported }
func shmUnmap(seg []byte)                                  {}
func shmFdSize(fd int) (int64, error)                      { return 0, errShmUnsupported }
func shmSendFd(uc *net.UnixConn, msg []byte, fd int) error { return errShmUnsupported }
func shmRecvFd(uc *net.UnixConn, msg []byte) (int, error)  { return -1, errShmUnsupported }

func closeFd(fd int) error { return nil }
func shmOSYield()          {}
