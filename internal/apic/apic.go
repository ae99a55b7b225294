// Package apic models the interrupt-delivery fabric used for TLB
// shootdowns (§3.3.1 of the paper).
//
// The model captures the three effects the paper measures:
//
//  1. Sends are serialized at the sender ("the OS delivers IPIs to each
//     remote core one by one via the APIC"), so a broadcast to many cores
//     occupies the initiating CPU proportionally.
//  2. Each target core handles interrupts one at a time. Concurrent
//     shootdowns from many initiators queue at the target's interrupt
//     inbox; this queueing is the "IPI storm" that inflates per-IPI latency
//     by an order of magnitude at high thread counts.
//  3. Delivery latency is NUMA-dependent (higher across sockets) and, for
//     virtualized systems, every delivered IPI pays a VM-exit surcharge.
//
// An IPI in flight is not a simulated process. Its round trip (wire,
// inbox, handler, ack) is a chain of sim continuations, each scheduled
// where a process's wake would have been, so it costs no coroutine and no
// resume: whoever pops a step runs it, usually the sender still parked in
// its next send slot.
package apic

import (
	"mage/internal/sim"
	"mage/internal/stats"
	"mage/internal/topo"
)

// Costs parameterizes the fabric. All values are virtual nanoseconds.
type Costs struct {
	// SendCost is the CPU time to issue one IPI at the sender.
	SendCost sim.Time
	// DeliverySameSocket is the wire latency to a core on the same socket.
	DeliverySameSocket sim.Time
	// DeliveryCrossSocket is the wire latency across sockets.
	DeliveryCrossSocket sim.Time
	// AckLatency is the time for the completion signal to travel back.
	AckLatency sim.Time
	// VMExit is added per delivered IPI when the receiving OS runs in a VM
	// (each IPI forces a VM exit, ~1200 cycles in the paper).
	VMExit sim.Time
}

// DefaultCosts returns values calibrated against the paper's bare-metal
// measurements (per-IPI latency ~1 µs uncontended, growing ~33× under
// 48-thread storms through queueing).
func DefaultCosts() Costs {
	return Costs{
		SendCost:            150,
		DeliverySameSocket:  950,
		DeliveryCrossSocket: 1900,
		AckLatency:          250,
	}
}

// Fabric delivers IPIs between cores of one machine.
type Fabric struct {
	eng     *sim.Engine
	machine *topo.Machine
	costs   Costs
	inbox   []*sim.Mutex // per-core interrupt serialization

	// IPIsSent counts individual IPIs (one per target per broadcast).
	IPIsSent stats.Counter
	// DeliveryLatency records, per IPI, the time from issue to handler
	// completion (includes inbox queueing) — the quantity in Fig 7.
	DeliveryLatency *stats.Histogram
}

// NewFabric builds a fabric over machine.
func NewFabric(eng *sim.Engine, machine *topo.Machine, costs Costs) *Fabric {
	f := &Fabric{
		eng:             eng,
		machine:         machine,
		costs:           costs,
		DeliveryLatency: stats.NewHistogram(),
	}
	for i := 0; i < machine.NumCores(); i++ {
		f.inbox = append(f.inbox, sim.NewMutex(eng, "irq-inbox"))
	}
	return f
}

// Completion is the handle for an asynchronous broadcast: it becomes done
// when every target has acknowledged.
type Completion struct {
	pending int
	q       sim.WaitQueue
}

// Wait blocks p until all acks have arrived.
func (c *Completion) Wait(p *sim.Proc) {
	for c.pending > 0 {
		c.q.Wait(p)
	}
}

// Post issues one IPI from core `from` to every core in targets and
// returns without waiting for acknowledgements. The sender still pays the
// serialized per-target send cost synchronously (issuing IPIs is CPU
// work); only the delivery/handler/ack round trip is asynchronous. This
// split is what lets MAGE's pipelined evictor overlap shootdown waits
// with work on other batches (Fig 8, steps ②–③).
func (f *Fabric) Post(p *sim.Proc, from topo.CoreID, targets []topo.CoreID, handlerCost sim.Time) *Completion {
	c := &Completion{pending: len(targets)}
	for _, tgt := range targets {
		// The sender is busy issuing this IPI before moving to the next.
		p.Sleep(f.costs.SendCost)
		f.IPIsSent.Inc()

		issued := p.Now()
		delivery := f.costs.DeliverySameSocket
		if !f.machine.SameSocket(from, tgt) {
			delivery = f.costs.DeliveryCrossSocket
		}
		f.eng.After(0, func() { f.deliver(c, tgt, issued, delivery, handlerCost) })
	}
	return c
}

// deliver runs one IPI's round trip: the wire and VM exit, the target's
// inbox in FIFO turn, the handler, the ack. Each step is a continuation
// scheduled where the IPI used to sleep or queue as a process of its own.
func (f *Fabric) deliver(c *Completion, tgt topo.CoreID, issued, delivery, handlerCost sim.Time) {
	inbox := f.inbox[tgt]
	f.eng.After(delivery+f.costs.VMExit, func() {
		inbox.LockThen(func() {
			f.eng.After(handlerCost, func() {
				f.machine.Core(tgt).Steal(int64(handlerCost + f.costs.VMExit))
				inbox.Release()
				f.DeliveryLatency.Record(int64(f.eng.Now() - issued))
				f.eng.After(f.costs.AckLatency, c.ack)
			})
		})
	})
}

// ack counts one target's acknowledgement and releases the waiters on the
// last.
func (c *Completion) ack() {
	c.pending--
	if c.pending == 0 {
		c.q.Broadcast()
	}
}
