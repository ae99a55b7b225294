//go:build race || !unix

package upager

// offHeapArena is what this build's frames must be: on the Go heap, where
// a race build's detector sees every access.
const offHeapArena = false
