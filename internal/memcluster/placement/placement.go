// Package placement is the pure sharding policy shared by the real
// memcluster client and the DES mirror (internal/nic): rendezvous
// (highest-random-weight) hashing of page keys onto shards, and
// deterministic memory-weighted selection among a shard's replicas.
//
// The package is deliberately free of network, clock, and concurrency
// dependencies so the simulation side can import it without dragging
// host-runtime code into deterministic experiments: every function is
// a pure map from its arguments to its result. Determinism is part of
// the contract — the same key against the same topology must place
// identically across runs, processes, and worker counts, because the
// DES↔real-cluster parity hinges on it.
//
// All inputs are treated as hostile: shard/replica counts of zero or
// less, and selection weights that are zero, negative, or absurdly
// huge (a byzantine STATS report) must never panic or yield an
// out-of-range index.
package placement

import "math"

// KeyPageBits is the page-number width of a cluster key, mirroring the
// tenant/page split of the DES fault layer (internal/core): a key is
// regionHandle<<KeyPageBits | pageNo, so one region can span 2^44
// pages and the remaining 20 bits name the region.
const KeyPageBits = 44

// Key packs a region handle and a page number into the 64-bit cluster
// key that shard placement hashes. Page numbers wider than KeyPageBits
// wrap into the handle bits — callers size regions far below that.
func Key(handle uint64, pageNo uint64) uint64 {
	return handle<<KeyPageBits | (pageNo & (1<<KeyPageBits - 1))
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer.
// Rendezvous hashing needs exactly this shape — independent-looking
// scores from (key, shard) pairs — without any table state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardSalt spreads shard indices far apart in the hash domain before
// mixing, so adjacent indices produce unrelated score streams.
const shardSalt = 0x9e3779b97f4a7c15 // 2^64 / golden ratio

// ShardOf maps key onto one of n shards by rendezvous hashing: the
// shard whose (key, shard) score is highest wins. Adding or removing
// one shard therefore moves only the keys whose winner changed —
// about 1/(n+1) of them.
// Equivalent to ShardOfIDs over the canonical ID sequence 1..n.
// n <= 0 returns -1; n == 1 returns 0 without hashing.
func ShardOf(key uint64, n int) int {
	if n <= 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for s := 0; s < n; s++ {
		score := mix64(key ^ (uint64(s)+1)*shardSalt)
		if score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// ShardOfIDs is rendezvous hashing over stable shard identities: the
// returned index is into ids, and a shard's score depends only on
// (key, id) — so removing one ID moves exactly the keys that ID owned,
// and adding one moves only the keys the newcomer wins, regardless of
// position. A cluster whose IDs are the canonical 1..n places
// identically to ShardOf(key, n). Returns -1 for an empty ID set.
// Duplicate IDs resolve to the first occurrence.
func ShardOfIDs(key uint64, ids []uint64) int {
	best := -1
	var bestScore uint64
	for i, id := range ids {
		score := mix64(key ^ id*shardSalt)
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// maxWeight caps a replica's selection weight. STATS reports are wire
// input from a possibly-confused server; clamping keeps the weighted
// score arithmetic inside float64's exact-integer range no matter what
// a node claims its free memory is.
const maxWeight = int64(1) << 50

// clampWeight maps a hostile weight report into [1, maxWeight]: zero
// and negative weights become 1 (still selectable — a full node must
// keep serving reads for pages it already holds), huge ones saturate.
func clampWeight(w int64) int64 {
	if w < 1 {
		return 1
	}
	if w > maxWeight {
		return maxWeight
	}
	return w
}

// SelectReplica picks one replica for key among a shard's replicas,
// weighted by weights[i] (typically the replica's free bytes from its
// last STATS sample) and restricted to replicas where healthy[i].
// attempt perturbs the hash so a failover retry (attempt 1, 2, ...)
// deterministically re-draws rather than re-picking the same loser
// when weights tie. Selection is weighted rendezvous: each replica
// scores -w/ln(u) with u derived from (key, replica, attempt), and
// the highest score wins — so a replica with twice the free memory
// receives about twice the keys, yet any single key's choice is
// stable while weights and health hold.
//
// Returns -1 when no replica is healthy (the caller degrades to
// scanning all replicas). len(weights) and len(healthy) may disagree;
// the shorter bound wins and missing entries read as unhealthy.
func SelectReplica(key uint64, attempt int, weights []int64, healthy []bool) int {
	n := len(healthy)
	if len(weights) < n {
		n = len(weights)
	}
	best := -1
	bestScore := 0.0
	for i := 0; i < n; i++ {
		if !healthy[i] {
			continue
		}
		score := replicaScore(key, attempt, i, weights[i])
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// replicaScore is the weighted-rendezvous score of one replica for one
// (key, attempt) draw. Exposed to tests via SelectReplica only.
func replicaScore(key uint64, attempt, replica int, weight int64) float64 {
	h := mix64(key ^ (uint64(replica)+1)*shardSalt ^ uint64(attempt)<<56)
	// Map the hash into u ∈ (0, 1): the +1/+2 offsets keep u off both
	// endpoints, so ln(u) is finite and negative.
	u := (float64(h>>11) + 1) / (float64(1<<53) + 2)
	return -float64(clampWeight(weight)) / logApprox(u)
}

// logApprox is a deterministic natural log for u ∈ (0, 1): frexp-style
// range reduction to [1, 2) plus an atanh-series polynomial. Stdlib
// math.Log would do, but an explicit fixed-operation-order
// implementation makes the cross-platform determinism the package
// promises inspectable rather than assumed.
func logApprox(u float64) float64 {
	// Decompose u = m * 2^e with m in [1, 2). u is a positive normal
	// float here (the caller's construction guarantees it), so bit
	// surgery on the IEEE representation is exact.
	bits := math.Float64bits(u)
	e := int((bits>>52)&0x7ff) - 1023
	m := math.Float64frombits(bits&^(uint64(0x7ff)<<52) | 1023<<52)
	// ln(m) via atanh series: t = (m-1)/(m+1), ln(m) = 2t(1 + t²/3 + t⁴/5 + ...).
	t := (m - 1) / (m + 1)
	t2 := t * t
	s := 1.0 + t2/3 + t2*t2/5 + t2*t2*t2/7 + t2*t2*t2*t2/9 + t2*t2*t2*t2*t2/11
	const ln2 = 0.6931471805599453
	return 2*t*s + float64(e)*ln2
}
