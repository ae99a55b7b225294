//go:build linux && !amd64 && !arm64

package memnode

// No memfd_create number carried for this architecture: a server there
// makes no region files, and offers no file link.
const sysMemfdCreate uintptr = 0
