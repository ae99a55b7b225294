package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"mage/internal/workload"
)

// Inputs are a pure function of -seed: each client owns one RNG seeded
// from (seed, client index), and the programs under test receive only
// the requests generated here.

const (
	kvKeys    = 65536 // magecache -keys
	pagePages = 65536 // pager region, 256 MiB
	pageLocal = 8192  // local frames, 8:1
	zipfTheta = 0.99
)

// op is one generated request: a key or page number, and whether it
// writes (KV SET, write pin).
type op struct {
	id    uint32
	write bool
}

type opGen struct {
	rng       *rand.Rand
	zipf      *workload.Scrambled
	writeFrac float64
}

func clientSeed(seed int64, client int) int64 {
	return seed*1000003 + int64(client)*7919 + 1
}

// newOpGen draws scrambled-Zipf(0.99) ids over [0, n) with the given
// write share.
func newOpGen(seed int64, client int, n int64, writeFrac float64) *opGen {
	return &opGen{
		rng:       rand.New(rand.NewSource(clientSeed(seed, client))),
		zipf:      workload.NewScrambled(n, zipfTheta),
		writeFrac: writeFrac,
	}
}

func (g *opGen) next() op {
	id := g.zipf.Next(g.rng)
	return op{id: uint32(id), write: g.rng.Float64() < g.writeFrac}
}

// streamHash digests the first count requests of every client, so two
// runs can show they were given the same inputs.
func streamHash(seed int64, n int64, writeFrac float64, count int) uint64 {
	h := fnv.New64a()
	var b [5]byte
	for c := 0; c < clients; c++ {
		g := newOpGen(seed, c, n, writeFrac)
		for i := 0; i < count; i++ {
			o := g.next()
			binary.LittleEndian.PutUint32(b[:], o.id)
			b[4] = 0
			if o.write {
				b[4] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The KV value model: a value is a pure function of its key, so any
// reply can be checked without remembering what was stored. A SET
// rewrites the same bytes; in magecache that still allocates a new
// slot and dirties its page, which is the work a SET is there to cause.

const valStampMagic = 0x62656e63686b76 // "benchkv"

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func appendKey(dst []byte, k uint32) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, 'k')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(k>>uint(shift))&0xf])
	}
	return dst
}

// valLen is 64..1023 bytes: every value fits a slab class <= 1024.
func valLen(k uint32) int { return 64 + int(fnv64(uint64(k))%960) }

func valFill(k uint32) byte { return byte(fnv64(uint64(k) ^ 0xfeed)) }

// appendValue appends key k's value: an 8-byte stamp derived from the
// key, then a fill byte repeated to the key's length.
func appendValue(dst []byte, k uint32) []byte {
	n := valLen(k)
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], uint64(k)^valStampMagic)
	dst = append(dst, stamp[:]...)
	fill := valFill(k)
	for i := 8; i < n; i++ {
		dst = append(dst, fill)
	}
	return dst
}

func checkValue(k uint32, v []byte) error {
	if len(v) != valLen(k) {
		return fmt.Errorf("key %d: length %d, want %d", k, len(v), valLen(k))
	}
	if got := binary.LittleEndian.Uint64(v); got != uint64(k)^valStampMagic {
		return fmt.Errorf("key %d: stamp %#x, want %#x", k, got, uint64(k)^valStampMagic)
	}
	fill := valFill(k)
	for i := 8; i < len(v); i++ {
		if v[i] != fill {
			return fmt.Errorf("key %d: byte %d is %#x, want fill %#x", k, i, v[i], fill)
		}
	}
	return nil
}
