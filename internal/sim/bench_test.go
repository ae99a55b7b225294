package sim

import (
	"testing"
)

// BenchmarkEngineDispatch measures the scheduler's per-event cost: a
// small set of processes repeatedly sleep, so every iteration is one
// event through schedule → heap → dispatch → park/resume. ns/op is host
// nanoseconds per dispatched event.
func BenchmarkEngineDispatch(b *testing.B) {
	const procs = 8
	eng := NewEngine()
	per := b.N / procs
	b.ResetTimer()
	for i := 0; i < procs; i++ {
		eng.Spawn("sleeper", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(Time(1 + j%7))
			}
		})
	}
	eng.Run()
	b.StopTimer()
	if eng.Live() != 0 {
		b.Fatalf("%d processes still live", eng.Live())
	}
	b.ReportMetric(float64(per*procs)*1e9/float64(b.Elapsed().Nanoseconds()), "events/s")
}

// BenchmarkEngineDispatchCancel stresses the lazy-cancellation path:
// every wait is signaled just before its timeout, so each round schedules
// a timeout event, cancels it, and the canceled carcass must be popped
// (and with the freelist, recycled) later.
func BenchmarkEngineDispatchCancel(b *testing.B) {
	eng := NewEngine()
	q := new(WaitQueue)
	rounds := b.N
	b.ResetTimer()
	eng.Spawn("waiter", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			q.WaitTimeout(p, 100)
		}
	})
	eng.Spawn("signaler", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Sleep(10)
			q.Signal(1)
		}
	})
	eng.Run()
	b.StopTimer()
	if eng.Live() != 0 {
		b.Fatalf("%d processes still live", eng.Live())
	}
}
