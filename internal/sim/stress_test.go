package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestManyProcsDeterministic stress-tests the scheduler with hundreds of
// processes contending on shared resources and verifies bit-identical
// replay.
func TestManyProcsDeterministic(t *testing.T) {
	run := func() (Time, uint64) {
		e := NewEngine()
		mu, mu2 := NewMutex(e, "shared"), NewMutex(e, "second")
		var sum uint64
		for i := 0; i < 200; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				rng := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < 20; k++ {
					switch rng.Intn(3) {
					case 0:
						mu.Lock(p)
						p.Sleep(Time(rng.Intn(50)))
						sum += uint64(i*k) & 0xff
						mu.Unlock(p)
					case 1:
						mu2.Lock(p)
						p.Sleep(Time(rng.Intn(30)))
						mu2.Unlock(p)
					case 2:
						p.Sleep(Time(rng.Intn(100)))
					}
				}
			})
		}
		return e.Run(), sum
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

// TestChanFIFOProperty checks order preservation under random
// producer/consumer interleavings.
func TestChanFIFOProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		e := NewEngine()
		c := NewChan[int](capacity)
		var got []int
		const n = 50
		e.Spawn("prod", func(p *Proc) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				p.Sleep(Time(rng.Intn(20)))
				for !c.TryPut(i) {
					p.Sleep(1) // full: try again once the consumer has taken one
				}
			}
			c.Close()
		})
		e.Spawn("cons", func(p *Proc) {
			rng := rand.New(rand.NewSource(seed + 1))
			for {
				v, ok := c.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(Time(rng.Intn(25)))
			}
		})
		e.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMutexNeverHeldByTwo asserts the core safety property under churn.
func TestMutexNeverHeldByTwo(t *testing.T) {
	e := NewEngine()
	mu := NewMutex(e, "mu")
	holders := 0
	violated := false
	for i := 0; i < 64; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for k := 0; k < 10; k++ {
				mu.Lock(p)
				holders++
				if holders > 1 {
					violated = true
				}
				p.Sleep(7)
				holders--
				mu.Unlock(p)
				p.Sleep(3)
			}
		})
	}
	e.Run()
	if violated {
		t.Fatal("two processes held the mutex simultaneously")
	}
	if mu.held {
		t.Fatal("mutex left locked after drain")
	}
}

// TestEngineLiveCountTracksProcs verifies bookkeeping used by the
// deadlock detector.
func TestEngineLiveCountTracksProcs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Sleep(Time(i * 10)) })
	}
	if e.Live() != 10 {
		t.Fatalf("Live = %d before run", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after run", e.Live())
	}
}
