//go:build linux && (!(amd64 || arm64) || race)

package memnode

// rawFileIO is off where the file offset may take two registers, and in
// race builds: region-file IO goes through syscall.Pread and
// syscall.Pwrite (see shm_rawio.go).
const rawFileIO = false
