package nic

import (
	"fmt"
	"testing"

	"mage/internal/sim"
)

func TestUncontendedReadLatencyIs3900ns(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	var d sim.Time
	eng.Spawn("reader", func(p *sim.Proc) {
		d = n.Read(p, PageSize)
	})
	eng.Run()
	if d != 3900 {
		t.Errorf("4KB READ latency = %v, want 3.9µs", d)
	}
}

func TestKernelStackCostsMore(t *testing.T) {
	lat := func(kind StackKind) sim.Time {
		eng := sim.NewEngine()
		n := NewDefault(eng, kind)
		var d sim.Time
		eng.Spawn("reader", func(p *sim.Proc) { d = n.Read(p, PageSize) })
		eng.Run()
		return d
	}
	if lat(StackKernel) <= lat(StackLibOS) {
		t.Errorf("kernel stack (%v) should be slower than libOS (%v)",
			lat(StackKernel), lat(StackLibOS))
	}
}

func TestIdealLimitNearPaper(t *testing.T) {
	n := NewDefault(sim.NewEngine(), StackLibOS)
	mops := n.MaxPagesPerSecond() / 1e6
	if mops < 5.7 || mops > 6.0 {
		t.Errorf("ideal page rate = %.2f M/s, want ≈5.86 (paper: 5.83)", mops)
	}
	if g := n.LineRateGbps(); g != 192 {
		t.Errorf("line rate = %v Gbps, want 192", g)
	}
}

func TestLinkSerializationCongestion(t *testing.T) {
	// 32 concurrent readers share one RX link: the last completion must be
	// pushed out by queueing, and total goodput must not exceed line rate.
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	var last sim.Time
	for i := 0; i < 32; i++ {
		eng.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			n.Read(p, PageSize)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	ser := sim.Time(float64(PageSize) / n.costs.BytesPerNs)
	if last < 3900+31*ser {
		t.Errorf("last read at %v, want >= %v (serialized wire)", last, 3900+31*ser)
	}
	if n.ReadLatency.Max() <= int64(3900) {
		t.Error("congestion should inflate tail latency beyond 3.9µs")
	}
}

func TestFullDuplexLinksIndependent(t *testing.T) {
	// A write in flight must not delay reads (separate RX/TX links).
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	var readLat sim.Time
	eng.Spawn("writer", func(p *sim.Proc) {
		n.PostWrite(p, 64*PageSize).Wait(p)
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		readLat = n.Read(p, PageSize)
	})
	eng.Run()
	if readLat != 3900 {
		t.Errorf("read latency = %v with concurrent write, want 3.9µs", readLat)
	}
}

func TestPostWriteIsAsynchronous(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	eng.Spawn("evictor", func(p *sim.Proc) {
		start := p.Now()
		c := n.PostWrite(p, 256*PageSize)
		submitCost := p.Now() - start
		if submitCost >= 3900 {
			t.Errorf("PostWrite blocked for %v; should only pay CPU cost", submitCost)
		}
		if c.Done() {
			t.Error("completion done immediately")
		}
		at := c.Wait(p)
		if at != p.Now() {
			t.Errorf("completion time %v != wait return time %v", at, p.Now())
		}
		if !c.Done() {
			t.Error("completion not done after Wait")
		}
	})
	eng.Run()
	if n.Writes.Value() != 1 || n.BytesWritten.Value() != 256*PageSize {
		t.Errorf("write accounting: %d writes, %d bytes",
			n.Writes.Value(), n.BytesWritten.Value())
	}
}

func TestWaitOnCompletedHandleReturnsImmediately(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	eng.Spawn("w", func(p *sim.Proc) {
		c := n.PostWrite(p, PageSize)
		p.Sleep(sim.Second) // write completes long before
		before := p.Now()
		c.Wait(p)
		if p.Now() != before {
			t.Error("Wait on completed handle advanced time")
		}
	})
	eng.Run()
}

func TestKernelStackLockContends(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackKernel)
	for i := 0; i < 48; i++ {
		eng.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			n.Read(p, PageSize)
		})
	}
	eng.Run()
	if n.stackLock.Contended == 0 {
		t.Error("expected contention on the kernel stack lock with 48 posters")
	}
}

func TestGoodputAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := NewDefault(eng, StackLibOS)
	eng.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			n.Read(p, PageSize)
		}
	})
	end := eng.Run()
	gbps := n.RxGbps(end)
	if gbps <= 0 || gbps > n.LineRateGbps() {
		t.Errorf("RxGbps = %.1f, want in (0, %.0f]", gbps, n.LineRateGbps())
	}
	if n.RxGbps(0) != 0 {
		t.Error("RxGbps(0) should be 0")
	}
}
