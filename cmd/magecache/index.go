package main

import "encoding/binary"

// index is one shard's key index, and holds no pointer per key: an
// open-addressing table of 8-byte slots over a byte arena of records.
//
// A slot is a 32-bit hash tag over 1 + the offset of its record (0 is an
// empty slot). A record is the entry, the key's length in one byte, then
// the key. The tag picks the slot a key probes from; the table probes
// linearly, closes a deletion's hole by shifting the chain behind it
// back, and doubles at ¾ load, which moves slots but no record. The
// arena is compacted once half of it is dead. The caller hashes the key
// and passes the hash in, so that one hash picks both the shard and the
// slot.
type index struct {
	slots []uint64
	arena []byte
	live  int // slots in use
	dead  int // arena bytes of deleted records
}

// Record layout: pg 4, node 4, off 2, ln 2, cls 1, key length 1, key.
const recHdr = 14

// keyHash is FNV-1a, the hash the cache passes to its index.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// home is the slot a key with this tag probes from.
func (ix *index) home(tag uint32) uint32 {
	return uint32(uint64(tag*0x9e3779b1) * uint64(len(ix.slots)) >> 32)
}

func (ix *index) record(s uint64) []byte {
	off := uint32(s) - 1
	return ix.arena[off : off+recHdr+uint32(ix.arena[off+recHdr-1])]
}

func recEntry(r []byte) entry {
	return entry{
		pg:   binary.LittleEndian.Uint32(r[0:]),
		node: binary.LittleEndian.Uint32(r[4:]),
		off:  binary.LittleEndian.Uint16(r[8:]),
		ln:   binary.LittleEndian.Uint16(r[10:]),
		cls:  r[12],
	}
}

func putEntry(r []byte, e entry) {
	binary.LittleEndian.PutUint32(r[0:], e.pg)
	binary.LittleEndian.PutUint32(r[4:], e.node)
	binary.LittleEndian.PutUint16(r[8:], e.off)
	binary.LittleEndian.PutUint16(r[10:], e.ln)
	r[12] = e.cls
}

// find returns the slot that holds key, which hashes to h.
func (ix *index) find(h uint64, key []byte) (uint32, bool) {
	if ix.live == 0 {
		return 0, false
	}
	tag, mask := uint32(h), uint32(len(ix.slots)-1)
	for i := ix.home(tag); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == tag && string(ix.record(s)[recHdr:]) == string(key) {
			return i, true
		}
	}
}

func (ix *index) get(h uint64, key []byte) (entry, bool) {
	i, ok := ix.find(h, key)
	if !ok {
		return entry{}, false
	}
	return recEntry(ix.record(ix.slots[i])), true
}

// put maps key to e and returns the entry it replaced. An overwrite
// rewrites the record in place; a new key's bytes are copied into the
// arena, the one copy of them the index keeps. len(key) <= 255.
func (ix *index) put(h uint64, key []byte, e entry) (old entry, had bool) {
	if i, ok := ix.find(h, key); ok {
		r := ix.record(ix.slots[i])
		old = recEntry(r)
		putEntry(r, e)
		return old, true
	}
	if (ix.live+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	off := len(ix.arena)
	ix.arena = append(ix.arena, make([]byte, recHdr)...)
	putEntry(ix.arena[off:], e)
	ix.arena[off+recHdr-1] = uint8(len(key))
	ix.arena = append(ix.arena, key...)
	ix.insert(uint64(uint32(h))<<32 | uint64(off+1))
	ix.live++
	return entry{}, false
}

// insert puts slot s into the first empty slot of its probe chain.
func (ix *index) insert(s uint64) {
	mask := uint32(len(ix.slots) - 1)
	i := ix.home(uint32(s >> 32))
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

func (ix *index) grow() {
	old := ix.slots
	ix.slots = make([]uint64, max(8, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			ix.insert(s)
		}
	}
}

func (ix *index) remove(h uint64, key []byte) (entry, bool) {
	i, ok := ix.find(h, key)
	if !ok {
		return entry{}, false
	}
	return ix.removeAt(i), true
}

// steal removes the entry whose key hashes to h and whose FIFO node is
// node: a stealer's victim, named by what the node carries.
func (ix *index) steal(h uint64, node uint32) (entry, bool) {
	if ix.live == 0 {
		return entry{}, false
	}
	tag, mask := uint32(h), uint32(len(ix.slots)-1)
	for i := ix.home(tag); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return entry{}, false
		}
		if uint32(s>>32) == tag && recEntry(ix.record(s)).node == node {
			return ix.removeAt(i), true
		}
	}
}

// removeAt deletes slot i's key and returns its entry. The slots behind
// it in the chain move back into the hole when their probe passes it, so
// that no chain has a gap.
func (ix *index) removeAt(i uint32) entry {
	r := ix.record(ix.slots[i])
	e := recEntry(r)
	ix.dead += len(r)
	ix.live--
	mask := uint32(len(ix.slots) - 1)
	for j := (i + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i if i lies on its probe from
		// its home to j.
		if (j-ix.home(uint32(ix.slots[j]>>32)))&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
	if 2*ix.dead >= len(ix.arena) {
		ix.compact()
	}
	return e
}

// compact copies the live records into a fresh arena, in slot order.
func (ix *index) compact() {
	fresh := make([]byte, 0, len(ix.arena)-ix.dead)
	for i, s := range ix.slots {
		if s != 0 {
			ix.slots[i] = s&^0xffffffff | uint64(len(fresh)+1)
			fresh = append(fresh, ix.record(s)...)
		}
	}
	ix.arena, ix.dead = fresh, 0
}

// bytes is what the index holds of the heap.
func (ix *index) bytes() int { return 8*cap(ix.slots) + cap(ix.arena) }

// valueBytes sums the lengths of the values the live keys name.
func (ix *index) valueBytes() uint64 {
	n := uint64(0)
	for _, s := range ix.slots {
		if s != 0 {
			n += uint64(recEntry(ix.record(s)).ln)
		}
	}
	return n
}
