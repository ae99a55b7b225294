package memnode

import "testing"

// TestHeapRegionChunks covers the portable fallback directly on every
// platform.
func TestHeapRegionChunks(t *testing.T) {
	chunks := heapRegionChunks(2)
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	for i, c := range chunks {
		if len(c) != ChunkBytes {
			t.Fatalf("chunk %d: len %d, want %d", i, len(c), ChunkBytes)
		}
		c[ChunkBytes-1] = 0xAB
	}
}
