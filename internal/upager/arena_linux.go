//go:build linux && !race

package upager

import (
	"syscall"
	"unsafe"
)

// hugePageBytes is the huge page the kernel's transparent huge pages
// back an aligned, advised range with (2 MiB on amd64 and 4 KiB-granule
// arm64).
const hugePageBytes = 2 << 20

// mapArena returns n bytes of anonymous private memory for the frames,
// mapped outside the Go heap: the collector neither scans the arena nor
// counts it toward its goal, so the process's local memory is its frames
// plus a heap sized by what the pager and its caller allocate, not twice
// the frames. The kernel backs a page on its first touch, with zeros.
//
// The frames are the pager's dense, hot memory, so they start on a huge
// page boundary and are advised MADV_HUGEPAGE: one TLB entry covers 512
// frames, and a hit's copy out of a frame seldom walks the page table.
// The mapping is one huge page longer than the arena, to fit the aligned
// start; its slack on either side is never touched, so never committed.
// The arena keeps the mapping's tail as its capacity: that is how
// unmapArena finds the whole mapping again.
func mapArena(n int64) ([]byte, error) {
	raw, err := syscall.Mmap(-1, 0, int(n)+hugePageBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	pad := -int(uintptr(unsafe.Pointer(unsafe.SliceData(raw)))) & (hugePageBytes - 1)
	arena := raw[pad : pad+int(n)]
	_ = syscall.Madvise(arena, syscall.MADV_HUGEPAGE) // advisory: without THP the frames sit on base pages
	return arena, nil
}

// unmapArena returns the mapping of an arena mapArena made to the
// kernel. syscall.Munmap takes back only the exact slice Mmap returned,
// which starts as far before the arena as the arena's capacity falls
// short of the mapping's length. Nothing may touch the arena's bytes
// afterwards: a stray access is a segmentation fault, not a stale read.
func unmapArena(b []byte) {
	mapped := len(b) + hugePageBytes
	base := unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), cap(b)-mapped)
	if err := syscall.Munmap(unsafe.Slice((*byte)(base), mapped)); err != nil {
		panic("upager: unmap frame arena: " + err.Error())
	}
}
