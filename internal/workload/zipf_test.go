package workload

import (
	"math"
	"math/rand"
	"testing"
)

// refZipfian is the generator as it stood before the second-key
// threshold was hoisted out of Next and the zeta sums were memoised,
// kept verbatim: bench/'s stream hashes and every golden digest hang on
// the draws being the same numbers, not merely the same distribution.
type refZipfian struct {
	n          int64
	theta      float64
	alpha      float64
	zetan      float64
	eta        float64
	zeta2theta float64
}

func newRefZipfian(n int64, theta float64) *refZipfian {
	z := &refZipfian{n: n, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func (z *refZipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func TestZipfianDrawsMatchReference(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	rows := []struct {
		n     int64
		theta float64
		seed  int64
	}{
		{65536, 0.99, 21*1000003 + 1}, // bench/'s key space and its client 0 at seed 21
		{16384, 0.99, 1},
		{1 << 16, 0.7, 3},
		{1000, 0.5, 4},
		{3, 0.99, 5},
		{65536, 0.99, 6}, // a memo hit: the first row computed this sum
	}
	for _, r := range rows {
		got, want := NewZipfian(r.n, r.theta), newRefZipfian(r.n, r.theta)
		if got.zetan != want.zetan || got.eta != want.eta || got.alpha != want.alpha {
			t.Fatalf("n=%d theta=%v: constants (zetan %v eta %v alpha %v), reference (%v %v %v)",
				r.n, r.theta, got.zetan, got.eta, got.alpha, want.zetan, want.eta, want.alpha)
		}
		ga, gb := rand.New(rand.NewSource(r.seed)), rand.New(rand.NewSource(r.seed))
		var second int
		for i := 0; i < draws; i++ {
			a, b := got.Next(ga), want.Next(gb)
			if a != b {
				t.Fatalf("n=%d theta=%v seed=%d: draw %d is %d, reference %d", r.n, r.theta, r.seed, i, a, b)
			}
			if a == 1 {
				second++
			}
		}
		if second == 0 {
			t.Errorf("n=%d theta=%v seed=%d: key 1 never drawn, the hoisted threshold was not exercised", r.n, r.theta, r.seed)
		}
	}
}

// TestZetaMemoConcurrent builds generators from several host goroutines
// at once, the way parexp's workers do, on a key space no other test
// touches so that the first Store races the Loads. Run under -race.
func TestZetaMemoConcurrent(t *testing.T) {
	const n, theta = 12289, 0.83
	want := zetaStatic(n, theta)
	done := make(chan float64, 8)
	for i := 0; i < cap(done); i++ {
		go func() { done <- NewZipfian(n, theta).zetan }()
	}
	for i := 0; i < cap(done); i++ {
		if got := <-done; got != want {
			t.Fatalf("zetan %v, want %v", got, want)
		}
	}
}
