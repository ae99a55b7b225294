//go:build linux

package memnode

import "syscall"

// allocRegionChunks backs a region with one anonymous mapping advised
// MADV_NOHUGEPAGE, carved into ChunkBytes chunks, so the kernel commits
// it 4 KiB at a time, on a page's first write, whatever the box's THP
// mode. Placement interleaves a cluster's shards page by page: a node
// holds every other page, or fewer, of the extents it serves, and a huge
// page would zero and keep 2 MiB for each extent one of its pages
// touched. Falls back to heap chunks if mmap fails (e.g. strict
// overcommit). The returned release unmaps the mapping, exactly the
// slice Mmap returned; it is nil for heap chunks (the GC owns those)
// and must only run once no chunk is referenced.
func allocRegionChunks(nChunks int) ([][]byte, func()) {
	raw, err := syscall.Mmap(-1, 0, nChunks*ChunkBytes,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return heapRegionChunks(nChunks), nil
	}
	_ = syscall.Madvise(raw, syscall.MADV_NOHUGEPAGE) // advisory: a kernel without THP commits base pages anyway
	chunks := make([][]byte, nChunks)
	for i := range chunks {
		chunks[i] = raw[i*ChunkBytes : (i+1)*ChunkBytes : (i+1)*ChunkBytes]
	}
	release := func() {
		if err := syscall.Munmap(raw); err != nil {
			panic("memnode: unmap region: " + err.Error())
		}
	}
	return chunks, release
}
