package workload

import "testing"

// drawKeys pulls n keys from a freshly built generator under a fresh
// seeded rng — the determinism contract is that this is a pure function
// of (build, seed, n).
func drawKeys(n int, seed int64, build func() KeyGen) []int64 {
	rng := seedRNG(seed)
	g := build()
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next(rng)
	}
	return out
}

// TestPhaseGeneratorsDeterministic is the double-run determinism test:
// every phase generator must replay the identical key sequence from the
// same seed, because the magecache load generator leans on that to
// replay a run.
func TestPhaseGeneratorsDeterministic(t *testing.T) {
	const keys = 1 << 14
	builds := map[string]func() KeyGen{
		"storm": func() KeyGen {
			return NewHotStorm(NewScrambled(keys, 0.99), keys, 16, 0.9, 0x5307)
		},
		"crowd": func() KeyGen {
			return NewFlashCrowd(NewScrambled(keys, 0.99), keys, keys-keys/8, keys/8, 0.5, 5000, 0.99)
		},
		"phased": func() KeyGen {
			return NewPhasedKeys(StandardPhases(keys, 0.99, 4000)...)
		},
	}
	for name, build := range builds {
		a := drawKeys(20000, 42, build)
		b := drawKeys(20000, 42, build)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs across identically seeded runs: %d vs %d", name, i, a[i], b[i])
			}
			if a[i] < 0 || a[i] >= keys {
				t.Fatalf("%s: draw %d out of range: %d", name, i, a[i])
			}
		}
		c := drawKeys(20000, 43, build)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: different seeds replayed the identical sequence", name)
		}
	}
}

func TestHotStormConcentratesTraffic(t *testing.T) {
	const keys = 1 << 16
	seq := drawKeys(40000, 7, func() KeyGen {
		return NewHotStorm(NewScrambled(keys, 0.99), keys, 16, 0.9, 0x5307)
	})
	counts := make(map[int64]int)
	for _, k := range seq {
		counts[k]++
	}
	// The 16 storm keys receive ~90% of draws (plus whatever the base
	// model happens to land on them). Find the top-16 share.
	top := make([]int, 0, len(counts))
	for _, c := range counts {
		top = append(top, c)
	}
	// selection of the 16 largest without sorting the whole thing
	best := 0
	for i := 0; i < 16 && i < len(top); i++ {
		maxAt := i
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[maxAt] {
				maxAt = j
			}
		}
		top[i], top[maxAt] = top[maxAt], top[i]
		best += top[i]
	}
	if share := float64(best) / float64(len(seq)); share < 0.85 {
		t.Fatalf("top-16 keys carry %.1f%% of storm traffic; want >= 85%%", share*100)
	}
}

func TestFlashCrowdRampsOntoColdSegment(t *testing.T) {
	const keys = 1 << 16
	const crowdBase = keys - keys/8
	seq := drawKeys(40000, 7, func() KeyGen {
		return NewFlashCrowd(NewScrambled(keys, 0.99), keys, crowdBase, keys/8, 0.5, 20000, 0.99)
	})
	inCrowd := func(lo, hi int) float64 {
		n := 0
		for _, k := range seq[lo:hi] {
			if k >= crowdBase {
				n++
			}
		}
		return float64(n) / float64(hi-lo)
	}
	early := inCrowd(0, 4000)        // ramp ~0→10%
	late := inCrowd(30000, len(seq)) // held at peak 50%
	if late < 0.4 {
		t.Fatalf("post-ramp crowd share %.2f; want ~0.5", late)
	}
	if early > late/2 {
		t.Fatalf("crowd share did not ramp: early %.2f vs late %.2f", early, late)
	}
}

func TestPhasedKeysWalksSchedule(t *testing.T) {
	rng := seedRNG(1)
	p := NewPhasedKeys(
		Phase{Name: "a", Draws: 3, Gen: NewScrambled(10, 0.99)},
		Phase{Name: "b", Draws: 2, Gen: NewScrambled(10, 0.99)},
		Phase{Name: "c", Draws: 0, Gen: NewScrambled(10, 0.99)},
	)
	// The final Draws:0 phase is unbounded, so the walk can keep drawing
	// past the bounded legs.
	want := []string{"a", "a", "a", "b", "b", "c", "c", "c"}
	got := make([]string, 0, len(want))
	for range want {
		p.Next(rng)
		got = append(got, p.CurrentPhase())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d served by phase %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}
