//go:build unix && !linux && !race

package upager

import "syscall"

// mapArena returns n bytes of anonymous private memory for the frames,
// mapped outside the Go heap: the collector neither scans the arena nor
// counts it toward its goal, so the process's local memory is its frames
// plus a heap sized by what the pager and its caller allocate, not twice
// the frames. The kernel backs a page on its first touch, with zeros.
func mapArena(n int64) ([]byte, error) {
	return syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapArena returns an arena mapArena made to the kernel. Nothing may
// touch its bytes afterwards: a stray access is a segmentation fault, not
// a stale read.
func unmapArena(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("upager: unmap frame arena: " + err.Error())
	}
}
