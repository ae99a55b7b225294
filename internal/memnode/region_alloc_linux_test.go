package memnode

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// residentPages asks mincore how many of b's pages are in memory. An
// unmapped range is syscall.ENOMEM.
func residentPages(b []byte) (int, error) {
	ps := os.Getpagesize()
	vec := make([]byte, (len(b)+ps-1)/ps)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return 0, errno
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n, nil
}

// regionSpan is the one mapping an mmap-backed region's chunks are
// carved from, checked to be that: adjacent chunks in order.
func regionSpan(t *testing.T, chunks [][]byte) []byte {
	t.Helper()
	base := unsafe.SliceData(chunks[0])
	for i, c := range chunks {
		if want := unsafe.Add(unsafe.Pointer(base), i*ChunkBytes); unsafe.Pointer(unsafe.SliceData(c)) != want {
			t.Fatalf("chunk %d at %p, want contiguous %p", i, unsafe.SliceData(c), want)
		}
	}
	return unsafe.Slice(base, len(chunks)*ChunkBytes)
}

// wantUnmapped fails unless mincore finds no mapping under span.
func wantUnmapped(t *testing.T, span []byte) {
	t.Helper()
	if n, err := residentPages(span); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("mincore after release: %d pages resident, err %v; want ENOMEM: the mapping outlived its release", n, err)
	}
}

// TestAllocRegionChunks exercises the platform chunk allocator: chunk
// count and size, one contiguous mapping carved into disjoint chunks,
// writability end to end, and that release hands the whole mapping back
// to the kernel. Nothing asks for ChunkBytes alignment any more: a
// region is committed page by page (TestRegionCommitsPageByPage), so a
// huge page boundary buys it nothing.
func TestAllocRegionChunks(t *testing.T) {
	const n = 3
	chunks, release := allocRegionChunks(n)
	if len(chunks) != n {
		t.Fatalf("got %d chunks, want %d", len(chunks), n)
	}
	for i, c := range chunks {
		if len(c) != ChunkBytes {
			t.Fatalf("chunk %d: len %d, want %d", i, len(c), ChunkBytes)
		}
		// First and last byte of every chunk must be writable.
		c[0] = byte(i + 1)
		c[ChunkBytes-1] = byte(i + 1)
	}
	for i, c := range chunks {
		if c[0] != byte(i+1) || c[ChunkBytes-1] != byte(i+1) {
			t.Fatalf("chunk %d: writes did not stick (overlap with another chunk?)", i)
		}
	}
	if release == nil {
		t.Fatal("no release: the region fell back to heap chunks")
	}
	span := regionSpan(t, chunks)
	release()
	wantUnmapped(t, span)
}

// TestRegionCommitsPageByPage: a node holds the pages placement sends
// it, interleaved with its peers', so one write into an extent must
// commit one page of it, not a huge page, whatever the box's THP mode.
func TestRegionCommitsPageByPage(t *testing.T) {
	const n = 8
	chunks, release := allocRegionChunks(n)
	if release == nil {
		t.Fatal("no release: the region fell back to heap chunks")
	}
	defer release()
	for _, c := range chunks {
		c[ChunkBytes/2] = 1
	}
	got, err := residentPages(regionSpan(t, chunks))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("one write into each of %d chunks left %d pages resident, want %d", n, got, n)
	}
}

// TestServerCloseUnmapsRegions: Close gives a TCP region's memory back
// to the kernel once its connections are done with it.
func TestServerCloseUnmapsRegions(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	h, err := c.Register(3 * ChunkBytes)
	if err == nil {
		err = c.Write(h, ChunkBytes+4096, []byte("resident"))
	}
	if err != nil {
		c.Close()
		srv.Close()
		t.Fatal(err)
	}
	srv.mu.Lock()
	var chunks [][]byte
	for _, ch := range srv.regions {
		chunks = ch
	}
	srv.mu.Unlock()
	if len(chunks) != 3 {
		t.Fatalf("server holds a region of %d chunks, want 3", len(chunks))
	}
	span := regionSpan(t, chunks)
	if got, err := residentPages(span); err != nil || got == 0 {
		t.Fatalf("before Close: %d pages resident (err %v): the write missed the region", got, err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wantUnmapped(t, span)
}
