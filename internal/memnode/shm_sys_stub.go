//go:build !linux

// File-link stubs for platforms without memfd seals or SCM_RIGHTS in
// this codebase. Negotiation sees ShmSupported=false and stays on TCP;
// forcing Options.Transport to shm surfaces errShmUnsupported.
package memnode

import (
	"net"
)

// ShmSupported reports whether this platform has the file link.
const ShmSupported = false

func allocRegionFile(nChunks int) ([][]byte, func(), hostFile, error) {
	return nil, nil, hostFile{}, errShmUnsupported
}
func checkRegionFile(fd int, size int64) error { return errShmUnsupported }
func mapCounterPage(fd int, size int64) ([]byte, *counters, error) {
	return nil, nil, errShmUnsupported
}
func unmapPage(m []byte)                                   {}
func preadFull(fd int, b []byte, off int64) error          { return errShmUnsupported }
func pwriteFull(fd int, b []byte, off int64) error         { return errShmUnsupported }
func shmSendFd(uc *net.UnixConn, msg []byte, fd int) error { return errShmUnsupported }
func shmRecvFd(uc *net.UnixConn, msg []byte) (int, error)  { return -1, errShmUnsupported }
func closeFd(fd int) error                                 { return nil }
