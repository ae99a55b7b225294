//go:build unix && !race

package upager

// offHeapArena is what this build's frames must be: mapped, outside the
// Go heap.
const offHeapArena = true
