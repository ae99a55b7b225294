package nic

import (
	"mage/internal/faultinject"
	"mage/internal/sim"
)

// SetFaultInjector attaches a fault injector to the NIC. Pass nil to
// detach. With no injector, TryRead/TryPostWrite degenerate to the
// plain Read/PostWrite event sequences — fault-free runs stay
// byte-identical whether or not this method was ever called.
func (n *NIC) SetFaultInjector(in *faultinject.Injector) { n.inj = in }

// FaultInjector returns the attached injector, or nil.
func (n *NIC) FaultInjector() *faultinject.Injector { return n.inj }

// ReadResult classifies the outcome of a TryRead.
type ReadResult int

const (
	// ReadOK: data arrived.
	ReadOK ReadResult = iota
	// ReadNack: the op failed with an error response after one round
	// trip. Retrying immediately is reasonable.
	ReadNack
	// ReadTimeout: no response within the caller's timeout — the remote
	// node may be down. The caller burned the full timeout.
	ReadTimeout
)

func (r ReadResult) String() string {
	switch r {
	case ReadOK:
		return "ok"
	case ReadNack:
		return "nack"
	case ReadTimeout:
		return "timeout"
	}
	return "ReadResult(?)"
}

// TryRead is Read with fault injection: it performs a one-sided READ
// that may NACK, time out, run slow, or run over a degraded link,
// according to the injector's schedule. With no injector attached it is
// exactly Read. The returned duration is the virtual time the caller
// spent on the attempt, whatever the result.
func (n *NIC) TryRead(p *sim.Proc, bytes int64, timeout sim.Time) (sim.Time, ReadResult) {
	return n.TryReadWith(p, bytes, timeout, n.inj)
}

// TryReadWith is TryRead under an explicit injector instead of the one
// attached to the NIC — a multi-tenant node uses it to run each tenant's
// reads through that tenant's own fault schedule while all tenants share
// the NIC's serialization and counters. A nil inj is exactly Read.
func (n *NIC) TryReadWith(p *sim.Proc, bytes int64, timeout sim.Time, inj *faultinject.Injector) (sim.Time, ReadResult) {
	if inj == nil {
		return n.Read(p, bytes), ReadOK
	}
	start := p.Now()
	o := inj.ReadOutcome(start)
	switch o.Drop {
	case faultinject.DropTimeout:
		// No response at all: the caller waits out its per-op timeout.
		p.Sleep(timeout)
		return p.Now() - start, ReadTimeout
	case faultinject.DropNack:
		// Error completion after one round trip: CPU submission cost plus
		// the base latency, but no data moved.
		n.hostPost(p)
		p.Sleep(n.costs.BaseLatency)
		return p.Now() - start, ReadNack
	}
	n.hostPost(p)
	p.Sleep(n.costs.BaseLatency + o.ExtraLatency)
	n.serializeAt(p, n.rx, bytes, o.RateFactor)
	n.Reads.Inc()
	n.BytesRead.Add(uint64(bytes))
	d := p.Now() - start
	n.ReadLatency.Record(int64(d))
	return d, ReadOK
}

// TryPostWrite is PostWrite with fault injection: the returned
// completion may report Failed/TimedOut instead of success. The CPU-side
// submission cost is always paid (the host posted the WR before the
// fabric lost it); failed writes never count toward Writes/BytesWritten.
// With no injector attached it is exactly PostWrite.
func (n *NIC) TryPostWrite(p *sim.Proc, bytes int64, timeout sim.Time) *Completion {
	return n.TryPostWriteWith(p, bytes, timeout, n.inj)
}

// TryPostWriteWith is TryPostWrite under an explicit injector — the
// clustered-memnode mirror uses it to run each replica's writes
// through that replica's own fault schedule while every replica
// shares the NIC's serialization and counters. A nil inj is exactly
// PostWrite.
func (n *NIC) TryPostWriteWith(p *sim.Proc, bytes int64, timeout sim.Time, inj *faultinject.Injector) *Completion {
	if inj == nil {
		return n.PostWrite(p, bytes)
	}
	o := inj.WriteOutcome(p.Now())
	n.hostPost(p)
	var lost sim.Time // how long a dropped write takes to report
	switch o.Drop {
	case faultinject.DropTimeout:
		lost = timeout
	case faultinject.DropNack:
		lost = n.costs.BaseLatency
	default:
		return n.startWrite(p, bytes, o.ExtraLatency, o.RateFactor)
	}
	c := &Completion{}
	timedOut := o.Drop == faultinject.DropTimeout
	n.eng.After(0, func() {
		n.eng.After(lost, func() { c.finish(n.eng.Now(), true, timedOut) })
	})
	return c
}
