//go:build linux && amd64

package memnode

// memfd_create on linux/amd64. The stdlib syscall package predates the
// call, so the number is carried here; zero, on architectures without an
// entry, means no region files.
const sysMemfdCreate uintptr = 319
