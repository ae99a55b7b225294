// Package workload implements page-granularity access-stream generators
// for the six applications in the paper's Table 1. The generators
// reproduce each application's access-pattern class (random graph, random
// grid, prefetchable scan, phase-changing random, phase-changing
// MapReduce, latency-critical KV) without computing application values:
// far-memory behaviour depends on which pages are touched, when, and how
// often — not on their contents.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync" //magevet:ok memo of a pure function: zeta(n, theta) is the same number whichever parexp worker computes it first, so sharing it cannot reach a digest
)

// Zipfian draws keys in [0, N) with P(k) ∝ 1/(k+1)^theta, using the
// YCSB/Gray algorithm. theta < 1 (the paper and YCSB use 0.99).
type Zipfian struct {
	n                int64
	theta            float64
	alpha            float64
	zetan            float64
	eta              float64
	zeta2theta       float64
	second           float64 // 1 + 0.5^theta: u*zetan below it draws key 1
	countForzeta     int64
	allowItemDecreas bool
}

// NewZipfian builds a generator over [0, n) with the given skew.
func NewZipfian(n int64, theta float64) *Zipfian {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipfian over %d items", n))
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v out of (0,1)", theta))
	}
	z := &Zipfian{n: n, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.zetan = zeta(n, theta)
	z.second = 1.0 + math.Pow(0.5, theta)
	z.countForzeta = n
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// zetaMemo holds zetaStatic's sums. One is n calls to math.Pow, and
// every thread of every cell of a grid builds its own generator over the
// same key space, so the same sum was being taken hundreds of times.
var zetaMemo sync.Map // zetaKey -> float64

type zetaKey struct {
	n     int64
	theta float64
}

func zeta(n int64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaMemo.Load(k); ok {
		return v.(float64)
	}
	v := zetaStatic(n, theta)
	zetaMemo.Store(k, v)
	return v
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	return sum
}

// Next draws the next key. Key 0 is the hottest.
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Scrambled draws a Zipfian key and scrambles it over the key space with
// an FNV-style hash, so hot keys are spread uniformly (YCSB's
// ScrambledZipfian). This is how skewed KV popularity maps onto pages
// without artificial page-level hotspots.
type Scrambled struct {
	z *Zipfian
}

// NewScrambled wraps a Zipfian in FNV scrambling.
func NewScrambled(n int64, theta float64) *Scrambled {
	return &Scrambled{z: NewZipfian(n, theta)}
}

// Next draws the next scrambled key in [0, N).
func (s *Scrambled) Next(rng *rand.Rand) int64 {
	k := s.z.Next(rng)
	return int64(fnv64(uint64(k)) % uint64(s.z.n))
}

// fnv64 is the FNV-1a 64-bit hash of the integer's bytes.
func fnv64(x uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime
		x >>= 8
	}
	return h
}
