package nic

import (
	"fmt"

	"mage/internal/faultinject"
	"mage/internal/sim"
	"mage/internal/stats"
)

// This file models the rack fabric joining compute nodes to each other —
// the interconnect cross-node eviction borrows memory over. It is
// deliberately link-centric where the NIC model above is endpoint-
// centric: congestion forms in the queue at each link (transfers FIFO
// behind one another for the wire), not just at the endpoints' rx/tx
// serialization, so a victim batch headed for a busy neighbour pays the
// queueing delay a real top-of-rack port would impose.

// LinkCosts parameterizes one fabric link. All times in virtual
// nanoseconds.
type LinkCosts struct {
	// BytesPerNs is the link line rate.
	BytesPerNs float64
	// PropDelay is the one-way propagation + switching latency.
	PropDelay sim.Time
	// PostCost is the CPU time to hand a transfer to the fabric (mirrors
	// the NIC's stack + doorbell costs, collapsed into one knob).
	PostCost sim.Time
}

// DefaultLinkCosts returns a 100 Gbps-class rack link: half the NIC's
// far-memory line rate and a switch hop dearer than the point-to-point
// RDMA path, so borrowing from a neighbour is cheaper than a swap
// round trip but not free.
func DefaultLinkCosts() LinkCosts {
	return LinkCosts{
		BytesPerNs: 12.5, // 100 Gbps
		PropDelay:  1500,
		PostCost:   230,
	}
}

// Link is one duplex rack-fabric link between two nodes. Both directions
// share the wire mutex: transfers queue FIFO for the link, which is what
// produces congestion latency when several nodes spill toward the same
// neighbour.
type Link struct {
	costs LinkCosts
	wire  *sim.Mutex

	// inj, when non-nil, decides the fate of TryTransfer ops, reusing
	// the NIC's fault-injection verbs: an outage window severs the link
	// (every transfer times out), a degraded window runs it below line
	// rate. The nil case falls straight through to the fault-free path,
	// so a fabric without injectors is event-for-event identical to one
	// built before link faults existed.
	inj *faultinject.Injector

	Transfers stats.Counter
	Bytes     stats.Counter
	Latency   *stats.Histogram
}

// SetFaultInjector attaches a fault injector to the link. Pass nil to
// detach.
func (l *Link) SetFaultInjector(in *faultinject.Injector) { l.inj = in }

// FaultInjector returns the attached injector, or nil.
func (l *Link) FaultInjector() *faultinject.Injector { return l.inj }

// Down reports whether the link is severed (inside an outage window) at
// time t. Policy code uses it to skip unreachable neighbours before
// committing a victim batch to the wire.
func (l *Link) Down(t sim.Time) bool {
	return l.inj != nil && l.inj.Down(t)
}

// TryTransfer moves bytes across the link and blocks until they arrive,
// queueing behind other transfers for the wire. The result reuses the
// NIC's ReadResult verbs: a severed link times out (the caller burns its
// full timeout), a NACK costs one propagation round trip, and degraded
// windows stretch the serialization time. With no injector attached the
// cost is exactly PostCost + PropDelay + queueing + bytes/line-rate.
func (l *Link) TryTransfer(p *sim.Proc, bytes int64, timeout sim.Time) (sim.Time, ReadResult) {
	start := p.Now()
	rate := 1.0
	var extra sim.Time
	if l.inj != nil {
		o := l.inj.ReadOutcome(start)
		switch o.Drop {
		case faultinject.DropTimeout:
			// Severed: no response at all within the caller's timeout.
			p.Sleep(timeout)
			return p.Now() - start, ReadTimeout
		case faultinject.DropNack:
			p.Sleep(l.costs.PostCost + l.costs.PropDelay)
			return p.Now() - start, ReadNack
		}
		rate = o.RateFactor
		extra = o.ExtraLatency
	}
	p.Sleep(l.costs.PostCost + l.costs.PropDelay + extra)
	l.wire.Lock(p)
	p.Sleep(sim.Time(float64(bytes) / (l.costs.BytesPerNs * rate)))
	l.wire.Unlock(p)
	l.Transfers.Inc()
	l.Bytes.Add(uint64(bytes))
	d := p.Now() - start
	l.Latency.Record(int64(d))
	return d, ReadOK
}

// Fabric is the simulated rack interconnect: a full mesh of Links over n
// nodes, one duplex link per node pair. Per-link bandwidth, propagation
// delay, queueing, and fault schedules compose with the per-node NIC
// model: a page borrowed from a neighbour crosses a fabric link, a page
// swapped out crosses the node's NIC.
type Fabric struct {
	n     int
	links [][]*Link // links[a][b] for a < b; mirrored at [b][a]
}

// NewFabric builds a full mesh over n nodes with uniform link costs.
func NewFabric(eng *sim.Engine, n int, costs LinkCosts) *Fabric {
	if n < 1 {
		panic("nic: NewFabric needs at least one node")
	}
	f := &Fabric{n: n, links: make([][]*Link, n)}
	for a := range f.links {
		f.links[a] = make([]*Link, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			l := &Link{
				costs:   costs,
				wire:    sim.NewMutex(eng, fmt.Sprintf("fabric.%d-%d", a, b)),
				Latency: stats.NewHistogram(),
			}
			f.links[a][b] = l
			f.links[b][a] = l
		}
	}
	return f
}

// Link returns the link joining nodes a and b (symmetric). It panics on
// a == b or out-of-range indices: there is no loopback link, and a
// mis-addressed transfer is a topology bug worth failing loudly on.
func (f *Fabric) Link(a, b int) *Link {
	if a < 0 || b < 0 || a >= f.n || b >= f.n || a == b {
		panic(fmt.Sprintf("nic: no fabric link %d-%d in a %d-node rack", a, b, f.n))
	}
	return f.links[a][b]
}

// SetLinkInjector attaches a fault injector to the a-b link.
func (f *Fabric) SetLinkInjector(a, b int, in *faultinject.Injector) {
	f.Link(a, b).SetFaultInjector(in)
}
