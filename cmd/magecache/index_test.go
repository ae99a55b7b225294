package main

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
)

// fuzzKey is one of FuzzIndex's 64 keys: the empty key, the longest key
// the protocol takes, and 62 short ones of lengths 1 to 6.
func fuzzKey(a byte) []byte {
	switch n := a % 64; n {
	case 62:
		return nil
	case 63:
		return bytes.Repeat([]byte{'L'}, maxKeyLen)
	default:
		return []byte(strconv.Itoa(int(n)) + "xxxx"[:n%5])
	}
}

// fuzzHash is FuzzIndex's 4-bit hash: with 16 values for 64 keys, keys
// share tags and homes, chains are long, and they wrap round the table.
func fuzzHash(key []byte) uint64 { return keyHash(key) & 15 }

// checkIndex holds ix to model after every op: each of the 64 keys reads
// as the model has it, every slot is a model key under its own tag and
// on an unbroken probe chain from its home, and the arena is the live
// records plus the dead bytes.
func checkIndex(t *testing.T, op int, ix *index, model map[string]entry) {
	t.Helper()
	for a := 0; a < 64; a++ {
		k := fuzzKey(byte(a))
		got, ok := ix.get(fuzzHash(k), k)
		want, wok := model[string(k)]
		if ok != wok || got != want {
			t.Fatalf("op %d: get(%.12q) = %+v, %v; model %+v, %v", op, k, got, ok, want, wok)
		}
	}
	// run[j] is how many used slots end at j, wrapping round the table.
	run := make([]int, len(ix.slots))
	for pass := 0; pass < 2; pass++ {
		for j, s := range ix.slots {
			if s != 0 {
				run[j] = 1 + run[(j+len(run)-1)%len(run)]
			}
		}
	}
	used, recBytes := 0, 0
	mask := uint32(len(ix.slots) - 1)
	for j, s := range ix.slots {
		if s == 0 {
			continue
		}
		used++
		r := ix.record(s)
		recBytes += len(r)
		k := r[recHdr:]
		if want, ok := model[string(k)]; !ok || recEntry(r) != want {
			t.Fatalf("op %d: slot %d holds %.12q -> %+v, model %+v, %v", op, j, k, recEntry(r), want, ok)
		}
		tag := uint32(s >> 32)
		if tag != uint32(fuzzHash(k)) {
			t.Fatalf("op %d: slot %d holds %.12q under tag %d", op, j, k, tag)
		}
		if probe := int((uint32(j)-ix.home(tag))&mask) + 1; probe > run[j] {
			t.Fatalf("op %d: slot %d is %d slots from its home, past a hole %d slots back", op, j, probe, run[j])
		}
	}
	if used != len(model) || ix.live != used {
		t.Fatalf("op %d: %d slots used, live %d, model %d keys", op, used, ix.live, len(model))
	}
	if recBytes+ix.dead != len(ix.arena) {
		t.Fatalf("op %d: %d live record bytes + %d dead != %d arena bytes", op, recBytes, ix.dead, len(ix.arena))
	}
}

// FuzzIndex holds the shard index to a map[string]entry model. Each pair
// of input bytes is an op and its argument: put, get, delete, steal by
// (hash, node), 24 puts in a row (the table grows), or 24 deletes in a
// row (the arena compacts). A put gives its entry a fresh node id, as a
// publication gets a fresh FIFO node. A steal names a key's hash and its
// node, or, when the argument has bit 6 set, its node's neighbour, which
// may be another key's node under another hash or under the same one.
func FuzzIndex(f *testing.F) {
	grow := []byte{4, 0, 4, 24, 4, 48}
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 1, 1, 2})
	f.Add(append(append([]byte{}, grow...), 2, 5, 2, 17, 2, 29, 2, 40, 2, 63, 1, 6))
	f.Add(append(append([]byte{}, grow...), 5, 0, 5, 30, 0, 7, 4, 10, 5, 40))
	f.Add(append(append([]byte{}, grow...), 3, 3, 3, 3+64, 3, 9+64, 3, 21, 3, 62+64, 3, 63))
	f.Add([]byte{0, 62, 0, 63, 3, 62, 2, 63, 0, 63, 1, 63})
	// Every key's node's neighbour stolen under the key's hash: a steal
	// that found its node under another hash would take another key.
	steals := append([]byte{}, grow...)
	for a := byte(0); a < 64; a++ {
		steals = append(steals, 3, a|64)
	}
	f.Add(steals)
	f.Fuzz(func(t *testing.T, in []byte) {
		in = in[:min(len(in), 512)] // 256 ops: 64 keys churn many times over
		var ix index
		model := map[string]entry{}
		node := uint32(0)
		put := func(i int, a byte) {
			k := fuzzKey(a)
			node++
			e := entry{pg: uint32(i), node: node, off: uint16(a), ln: uint16(len(k)), cls: a % 7}
			old, had := ix.put(fuzzHash(k), k, e)
			if want, ok := model[string(k)]; had != ok || old != want {
				t.Fatalf("op %d: put(%.12q) replaced %+v, %v; model %+v, %v", i, k, old, had, want, ok)
			}
			model[string(k)] = e
		}
		del := func(i int, a byte) {
			k := fuzzKey(a)
			got, ok := ix.remove(fuzzHash(k), k)
			if want, wok := model[string(k)]; ok != wok || got != want {
				t.Fatalf("op %d: remove(%.12q) = %+v, %v; model %+v, %v", i, k, got, ok, want, wok)
			}
			delete(model, string(k))
		}
		for i := 0; i+1 < len(in); i += 2 {
			op, a := in[i]%6, in[i+1]
			switch op {
			case 0:
				put(i/2, a)
			case 1: // checkIndex gets every key
			case 2:
				del(i/2, a)
			case 3:
				k := fuzzKey(a)
				h, n := fuzzHash(k), node
				if e, ok := model[string(k)]; ok {
					n = e.node
				}
				if a&64 != 0 {
					n ^= 1
				}
				var victim string
				want, wok := entry{}, false
				for mk, e := range model {
					if fuzzHash([]byte(mk)) == h && e.node == n {
						victim, want, wok = mk, e, true
					}
				}
				got, ok := ix.steal(h, n)
				if ok != wok || got != want {
					t.Fatalf("op %d: steal(%d, %d) = %+v, %v; model %+v, %v", i/2, h, n, got, ok, want, wok)
				}
				if ok {
					delete(model, victim)
				}
			case 4:
				for j := byte(0); j < 24; j++ {
					put(i/2, a+j)
				}
			case 5:
				for j := byte(0); j < 24; j++ {
					del(i/2, a+j)
				}
			}
			checkIndex(t, i/2, &ix, model)
		}
	})
}

// TestIndexBytesPerKey: 65,536 keys of the load generator's shape add
// at most 72 bytes each to the live heap — table, arena and FIFO node —
// where a map[string]entry, a string per key and a string per FIFO node
// took 107. IndexBytes is what they add.
func TestIndexBytesPerKey(t *testing.T) {
	const keys = 1 << 16
	// One-byte values, 64 to a page: the heap is the keys' alone.
	c, _ := newMemCache(t, keys/64+uint64(len(classSizes)), 64)
	names := make([]string, keys)
	for k := range names {
		names[k] = keyName(int64(k))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range names {
		if err := c.Set(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / keys
	index := float64(c.Stats().IndexBytes) / keys
	t.Logf("%d keys: live heap grew %.1f B per key; IndexBytes %.1f B per key", keys, grew, index)
	if grew > 72 {
		t.Errorf("the index takes %.1f B of live heap per key, want <= 72", grew)
	}
	if index > grew*1.1 || index < grew*0.9 {
		t.Errorf("IndexBytes counts %.1f B per key of the %.1f B the heap grew", index, grew)
	}
	runtime.KeepAlive(names)
}
