package placement

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
)

func TestKeyPacking(t *testing.T) {
	k := Key(3, 7)
	if k != 3<<KeyPageBits|7 {
		t.Fatalf("Key(3,7) = %#x", k)
	}
	// Page numbers beyond the page field must not corrupt the handle.
	k = Key(1, 1<<KeyPageBits+5)
	if k>>KeyPageBits != 1 || k&(1<<KeyPageBits-1) != 5 {
		t.Fatalf("overflowing page leaked into handle: %#x", k)
	}
}

func TestShardOfRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for key := uint64(0); key < 4096; key++ {
			s := ShardOf(key, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", key, n, s)
			}
		}
	}
	if ShardOf(1, 0) != -1 || ShardOf(1, -3) != -1 {
		t.Fatal("non-positive shard count must map to -1")
	}
}

// TestShardOfBalance checks rendezvous hashing spreads keys roughly
// evenly: no shard may hold more than 2x or less than half its fair
// share over a large key sample.
func TestShardOfBalance(t *testing.T) {
	const n, keys = 5, 100000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[ShardOf(Key(1, uint64(i)), n)]++
	}
	fair := keys / n
	for s, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("shard %d holds %d keys (fair share %d)", s, c, fair)
		}
	}
}

// TestShardOfBoundedMigration is the rendezvous property: growing N
// shards to N+1 moves only the keys the new shard wins — about 1/(N+1)
// of them — and every moved key lands on the new shard.
func TestShardOfBoundedMigration(t *testing.T) {
	const oldN, keys = 4, 50000
	moved := 0
	for i := 0; i < keys; i++ {
		key := Key(2, uint64(i))
		if ShardOf(key, oldN) != ShardOf(key, oldN+1) {
			moved++
			if got := ShardOf(key, oldN+1); got != oldN {
				t.Fatalf("key %#x moved to shard %d, not the new shard", key, got)
			}
		}
	}
	fair := keys / (oldN + 1)
	if moved < fair/2 || moved > fair*2 {
		t.Errorf("migration moved %d keys, expected about %d", moved, fair)
	}
}

func TestSelectReplicaHealthMask(t *testing.T) {
	w := []int64{100, 100, 100}
	for key := uint64(0); key < 1000; key++ {
		i := SelectReplica(key, 0, w, []bool{false, true, false})
		if i != 1 {
			t.Fatalf("only replica 1 healthy, selected %d", i)
		}
	}
	if i := SelectReplica(7, 0, w, []bool{false, false, false}); i != -1 {
		t.Fatalf("no healthy replicas must select -1, got %d", i)
	}
	if i := SelectReplica(7, 0, nil, nil); i != -1 {
		t.Fatalf("empty topology must select -1, got %d", i)
	}
}

// TestSelectReplicaWeighting checks the memory-weighted property: a
// replica reporting twice the free bytes receives roughly twice the
// keys.
func TestSelectReplicaWeighting(t *testing.T) {
	const keys = 200000
	w := []int64{1 << 30, 2 << 30}
	healthy := []bool{true, true}
	counts := [2]int{}
	for i := 0; i < keys; i++ {
		counts[SelectReplica(Key(1, uint64(i)), 0, w, healthy)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("weight-2x replica drew %.2fx the keys (counts %v), want ~2x", ratio, counts)
	}
}

// TestSelectReplicaFailoverRedraw: bumping attempt must be able to
// reach the other replica even with equal weights (one-retry failover
// must not deterministically re-pick the replica that just failed).
func TestSelectReplicaFailoverRedraw(t *testing.T) {
	w := []int64{100, 100}
	healthy := []bool{true, true}
	redraws := 0
	for key := uint64(0); key < 1000; key++ {
		if SelectReplica(key, 0, w, healthy) != SelectReplica(key, 1, w, healthy) {
			redraws++
		}
	}
	if redraws < 250 {
		t.Errorf("attempt perturbation re-drew only %d/1000 keys", redraws)
	}
}

// placementDigest hashes a canonical sweep of placement decisions.
// The golden value pins byte-identical behavior across runs, processes,
// and refactors: any change to the hash, the clamping, or the score
// arithmetic shows up as a digest change that must be deliberate
// (re-placing every deployed key is the cost of changing it).
func placementDigest() string {
	h := sha256.New()
	var b [8]byte
	weights := []int64{0, -5, 1 << 20, 1 << 62, 4096}
	healthy := []bool{true, true, true, true, true}
	for key := uint64(0); key < 20000; key++ {
		k := Key(key%7, key)
		binary.LittleEndian.PutUint64(b[:], uint64(ShardOf(k, 5)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(SelectReplica(k, int(key%3), weights, healthy)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementByteIdenticalAcrossWorkers computes the placement
// digest sequentially and from a pool of concurrent goroutines and
// requires the same bytes: placement is pure, so worker count and
// interleaving must be invisible. The sequential digest is also
// pinned, so a run today must match a run from any other process.
func TestPlacementByteIdenticalAcrossWorkers(t *testing.T) {
	seq := placementDigest()
	const workers = 8
	var wg sync.WaitGroup
	digests := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			digests[w] = placementDigest()
		}(w)
	}
	wg.Wait()
	for w, d := range digests {
		if d != seq {
			t.Fatalf("worker %d digest %s != sequential %s", w, d, seq)
		}
	}
	// Golden pin: a drift here means deployed keys would re-place, which
	// is a full-cluster migration. Change it only deliberately.
	const golden = "9cc1a75d3246bc9b8b171b6d8df54db7395db9204650c30ea80e938db123a7c6"
	if seq != golden {
		t.Fatalf("placement digest drifted: got %s, pinned %s", seq, golden)
	}
}

// TestShardOfIDsCanonicalEquivalence pins the documented contract that
// ShardOfIDs over the canonical identities 1..n places every key
// exactly where ShardOf(key, n) does, so a cluster whose shards are
// IDs 1..n places as ShardOf says.
func TestShardOfIDsCanonicalEquivalence(t *testing.T) {
	for n := 1; n <= 9; n++ {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i) + 1
		}
		for handle := uint64(1); handle <= 3; handle++ {
			for page := uint64(0); page < 4096; page++ {
				k := Key(handle, page)
				if got, want := ShardOfIDs(k, ids), ShardOf(k, n); got != want {
					t.Fatalf("n=%d key=%#x: ShardOfIDs=%d, ShardOf=%d", n, k, got, want)
				}
			}
		}
	}
	if got := ShardOfIDs(Key(1, 1), nil); got != -1 {
		t.Fatalf("ShardOfIDs(empty) = %d, want -1", got)
	}
}
