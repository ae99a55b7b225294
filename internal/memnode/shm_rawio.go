//go:build linux && (amd64 || arm64) && !race

package memnode

// rawFileIO selects raw pread64 and pwrite64 for region-file IO
// (preadFull, pwriteFull). On amd64 and arm64 the file offset is one
// register. A race build keeps syscall.Pread and syscall.Pwrite, whose
// annotations let the detector see the kernel's writes into a buffer.
const rawFileIO = true
