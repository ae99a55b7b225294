// Package nic models the RDMA NIC connecting the compute node to the
// far-memory node.
//
// The model has three parts, mirroring the quantities the paper's
// "ideal" baseline and Figs 14–15 are built from:
//
//   - A per-direction link (RX for one-sided READs that fault pages in, TX
//     for WRITEs that evict pages out). Each transfer holds the link for
//     size/line-rate; queueing behind other transfers produces congestion
//     latency under load.
//   - A base propagation latency (the paper's best-case L = 3.9 µs for a
//     4 KB page includes this plus one 4 KB serialization).
//   - CPU-side costs: posting a work request (doorbell) plus the network
//     stack. The kernel RDMA stack (Hermit, Mage^LNX) costs more per
//     operation and serializes on a shared lock; the libOS/microkernel
//     driver (DiLOS, Mage^LIB) uses per-core QPs with no shared lock.
//
// A posted WRITE in flight is not a simulated process. Its propagation,
// its turn on the TX link and its completion are a chain of sim
// continuations, each scheduled where a process's wake would have been,
// so it costs no coroutine and no resume: whoever pops a step runs it.
package nic

import (
	"mage/internal/faultinject"
	"mage/internal/sim"
	"mage/internal/stats"
)

// PageSize is the transfer granularity of the paging systems.
const PageSize = 4096

// StackKind selects the host networking stack.
type StackKind int

const (
	// StackLibOS is a microkernel-style driver: cheap per-op cost, per-core
	// QPs, no shared lock.
	StackLibOS StackKind = iota
	// StackKernel is the Linux RDMA stack: higher per-op cost plus a shared
	// submission lock that contends at high thread counts.
	StackKernel
)

// Costs parameterizes the NIC. All times in virtual nanoseconds.
type Costs struct {
	// BaseLatency is the one-way propagation + remote processing latency.
	BaseLatency sim.Time
	// BytesPerNs is the line rate. 24 bytes/ns ≈ 192 Gbps, the practical
	// limit the paper reports for the 200 Gbps BlueField-2.
	BytesPerNs float64
	// DoorbellCost is the CPU time to ring a doorbell / post one WR.
	DoorbellCost sim.Time
	// StackCost is the per-operation CPU time in the host stack.
	StackCost sim.Time
	// StackLockCost is how long the shared kernel-stack lock is held per
	// operation (zero for the libOS stack).
	StackLockCost sim.Time
}

// DefaultCosts returns costs for the given stack, calibrated so that a
// 4 KB READ completes in 3.9 µs uncontended on the libOS stack (the
// paper's measured best case).
func DefaultCosts(kind StackKind) Costs {
	c := Costs{
		BytesPerNs:   24.0, // 192 Gbps
		DoorbellCost: 100,
	}
	serialization := sim.Time(float64(PageSize) / c.BytesPerNs) // ~170 ns
	switch kind {
	case StackLibOS:
		c.StackCost = 130
		c.StackLockCost = 0
		c.BaseLatency = 3900 - serialization - c.StackCost - c.DoorbellCost
	case StackKernel:
		// The shared submission lock serializes at ~4.3 M ops/s, which is
		// what caps Mage^LNX at the paper's 139 Gbps (§6.4).
		c.StackCost = 750
		c.StackLockCost = 230
		c.BaseLatency = 3900 - serialization - 130 - c.DoorbellCost
	}
	return c
}

// Backend selects the far-memory transport the paging systems swap to.
// The paper's conclusion notes MAGE's OS-level optimizations apply to any
// fast swap backend; these cost presets let the experiments verify that.
type Backend int

const (
	// BackendRDMA is the paper's testbed: 200 Gbps BlueField-2.
	BackendRDMA Backend = iota
	// BackendNVMe is a local NVMe SSD: ~18 µs read latency, ~7 GB/s.
	BackendNVMe
	// BackendZswap is compressed in-DRAM swap: no wire, but every page
	// pays a CPU compression/decompression cost.
	BackendZswap
)

func (b Backend) String() string {
	switch b {
	case BackendRDMA:
		return "rdma"
	case BackendNVMe:
		return "nvme"
	case BackendZswap:
		return "zswap"
	}
	return "Backend(?)"
}

// BackendCosts returns cost parameters for a backend behind the given
// host stack.
func BackendCosts(b Backend, kind StackKind) Costs {
	c := DefaultCosts(kind)
	switch b {
	case BackendRDMA:
		// DefaultCosts already models it.
	case BackendNVMe:
		c.BytesPerNs = 7.0 // ~7 GB/s
		c.BaseLatency = 18000
	case BackendZswap:
		// "Wire" is a memcpy from the compressed pool; the real cost is
		// per-page LZO-class (de)compression on the faulting CPU.
		c.BytesPerNs = 20.0
		c.BaseLatency = 400
		c.StackCost += 1800
	}
	return c
}

// NIC is one RDMA adapter with full-duplex RX and TX links.
type NIC struct {
	eng   *sim.Engine
	costs Costs
	kind  StackKind

	rx        *sim.Mutex // serialization of inbound data (faults in)
	tx        *sim.Mutex // serialization of outbound data (evictions out)
	stackLock *sim.Mutex // kernel stack submission lock (nil for libOS)

	// inj, when non-nil, decides the fate of TryRead/TryPostWrite ops.
	// The nil case falls straight through to the fault-free paths, so a
	// NIC without an injector is event-for-event identical to one built
	// before fault injection existed.
	inj *faultinject.Injector

	BytesRead    stats.Counter
	BytesWritten stats.Counter
	Reads        stats.Counter
	Writes       stats.Counter
	ReadLatency  *stats.Histogram
	WriteLatency *stats.Histogram
}

// New builds a NIC.
func New(eng *sim.Engine, kind StackKind, costs Costs) *NIC {
	n := &NIC{
		eng:          eng,
		costs:        costs,
		kind:         kind,
		rx:           sim.NewMutex(eng, "nic.rx"),
		tx:           sim.NewMutex(eng, "nic.tx"),
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
	}
	if kind == StackKernel {
		n.stackLock = sim.NewMutex(eng, "nic.stacklock")
	}
	return n
}

// NewDefault builds a NIC with DefaultCosts(kind).
func NewDefault(eng *sim.Engine, kind StackKind) *NIC {
	return New(eng, kind, DefaultCosts(kind))
}

// serialize models the wire time of a transfer on the given link.
func (n *NIC) serialize(p *sim.Proc, link *sim.Mutex, bytes int64) {
	n.serializeAt(p, link, bytes, 1)
}

// serializeAt is serialize with the line rate scaled by factor — the
// fault injector's degraded-link windows run transfers at factor < 1.
func (n *NIC) serializeAt(p *sim.Proc, link *sim.Mutex, bytes int64, factor float64) {
	link.Lock(p)
	p.Sleep(n.wire(bytes, factor))
	link.Unlock(p)
}

// serializeThen is serializeAt for a continuation: k runs once the
// transfer has left the link.
func (n *NIC) serializeThen(link *sim.Mutex, bytes int64, factor float64, k func()) {
	link.LockThen(func() {
		n.eng.After(n.wire(bytes, factor), func() {
			link.Release()
			k()
		})
	})
}

// wire is the time bytes hold a link at the line rate scaled by factor.
func (n *NIC) wire(bytes int64, factor float64) sim.Time {
	return sim.Time(float64(bytes) / (n.costs.BytesPerNs * factor))
}

// hostPost models the CPU-side cost of submitting one work request.
func (n *NIC) hostPost(p *sim.Proc) {
	p.Sleep(n.costs.StackCost)
	if n.stackLock != nil {
		n.stackLock.Lock(p)
		p.Sleep(n.costs.StackLockCost)
		n.stackLock.Unlock(p)
	}
	p.Sleep(n.costs.DoorbellCost)
}

// Read performs a one-sided RDMA READ of bytes and blocks until the data
// has arrived (the fault-in path is synchronous). It returns the elapsed
// virtual time.
func (n *NIC) Read(p *sim.Proc, bytes int64) sim.Time {
	start := p.Now()
	n.hostPost(p)
	p.Sleep(n.costs.BaseLatency)
	n.serialize(p, n.rx, bytes)
	n.Reads.Inc()
	n.BytesRead.Add(uint64(bytes))
	d := p.Now() - start
	n.ReadLatency.Record(int64(d))
	return d
}

// Completion is a handle for an asynchronous WRITE.
type Completion struct {
	done bool
	q    sim.WaitQueue
	at   sim.Time

	// Fault-injection verdicts: set before done when the write was
	// dropped. A failed write never counts toward Writes/BytesWritten.
	failed   bool
	timedOut bool
}

// Done reports whether the operation has completed.
func (c *Completion) Done() bool { return c.done }

// Failed reports whether the write was dropped by the fault injector
// (NACK or timeout). Only meaningful once Done/Wait returns.
func (c *Completion) Failed() bool { return c.failed }

// TimedOut reports whether the failure was a timeout (no response at
// all) rather than a NACK.
func (c *Completion) TimedOut() bool { return c.timedOut }

// Wait blocks p until the operation completes and returns the completion
// time.
func (c *Completion) Wait(p *sim.Proc) sim.Time {
	for !c.done {
		c.q.Wait(p)
	}
	return c.at
}

// finish marks the write done at the current instant, with the injector's
// verdict, and releases its waiters.
func (c *Completion) finish(now sim.Time, failed, timedOut bool) {
	c.failed, c.timedOut = failed, timedOut
	c.done = true
	c.at = now
	c.q.Broadcast()
}

// PostWrite submits a one-sided RDMA WRITE of bytes and returns
// immediately with a completion handle; the wire transfer proceeds
// asynchronously. The caller pays only the CPU-side submission cost.
// This split is what enables the cross-batch pipelined eviction path to
// overlap RDMA waits with work on other batches (Fig 8, steps ⑤–⑥).
func (n *NIC) PostWrite(p *sim.Proc, bytes int64) *Completion {
	n.hostPost(p)
	return n.startWrite(p, bytes, 0, 1)
}

// startWrite posts the wire half of a WRITE that will succeed: the base
// latency plus extra, then the TX link at the line rate scaled by factor,
// then the completion. The first step is scheduled now, where a spawned
// process's start would be, so that every later step takes the seq its
// sleep or hand-off would have had.
func (n *NIC) startWrite(p *sim.Proc, bytes int64, extra sim.Time, factor float64) *Completion {
	c := &Completion{}
	issued := p.Now()
	n.eng.After(0, func() {
		n.eng.After(n.costs.BaseLatency+extra, func() {
			n.serializeThen(n.tx, bytes, factor, func() {
				n.Writes.Inc()
				n.BytesWritten.Add(uint64(bytes))
				n.WriteLatency.Record(int64(n.eng.Now() - issued))
				c.finish(n.eng.Now(), false, false)
			})
		})
	})
	return c
}

// RxGbps returns achieved inbound goodput over the elapsed time, in Gbps.
func (n *NIC) RxGbps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n.BytesRead.Value()) * 8 / float64(elapsed)
}

// TxGbps returns achieved outbound goodput in Gbps.
func (n *NIC) TxGbps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n.BytesWritten.Value()) * 8 / float64(elapsed)
}

// LineRateGbps returns the configured line rate in Gbps.
func (n *NIC) LineRateGbps() float64 { return n.costs.BytesPerNs * 8 }

// MaxPagesPerSecond returns the per-direction page rate the link supports:
// the paper's "ideal limit" (5.83 M ops/s at 192 Gbps with 4 KB pages).
func (n *NIC) MaxPagesPerSecond() float64 {
	return n.costs.BytesPerNs * 1e9 / PageSize
}
