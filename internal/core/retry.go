package core

import (
	"mage/internal/faultinject"
	"mage/internal/nic"
	"mage/internal/sim"
)

// The fault-in/eviction retry layer: per-op timeouts with capped
// exponential backoff and deterministic jitter. It only takes effect when
// a fault plan (node-wide Config.FaultPlan, a per-tenant
// TenantSpec.FaultPlan or a rack's LinkPlans) enables injection; without
// a plan every remote op succeeds on the first attempt and these are
// never consulted.
const (
	// retryMaxAttempts is how many times one remote op is tried before
	// the path declares the remote unreachable and drops into degraded
	// mode.
	retryMaxAttempts = 4
	// retryAttemptTimeout is the per-attempt deadline: a timed-out op
	// burns this much virtual time before the retry logic sees the
	// failure.
	retryAttemptTimeout = 100 * sim.Microsecond
	// retryBaseBackoff doubles per consecutive failure up to
	// retryMaxBackoff.
	retryBaseBackoff = 10 * sim.Microsecond
	retryMaxBackoff  = sim.Millisecond
	// retryJitterFrac spreads each backoff by ±frac (deterministically,
	// from the injector's seeded RNG) so concurrent retriers
	// desynchronize.
	retryJitterFrac = 0.25
)

// retryBackoff returns the capped exponential delay after the attempt-th
// consecutive failure (attempt ≥ 1).
func retryBackoff(attempt int) sim.Time {
	d := retryBaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= retryMaxBackoff {
			return retryMaxBackoff
		}
	}
	return d
}

// remoteRead fetches bytes from the far node through whatever weather
// the tenant's fault injector schedules: NACKs and timeouts are retried
// with capped exponential backoff + jitter; after MaxAttempts consecutive
// failures the path records a give-up and sits out the outage in
// degraded mode before starting a fresh round. The fault path can never
// abandon the page, so this only returns on success. With no injector
// it is exactly NIC.Read. Degraded parking is per-tenant: this tenant's
// outage never parks a co-tenant's fault path.
func (t *Tenant) remoteRead(p *sim.Proc, bytes int64) {
	inj := t.injector()
	if inj == nil {
		t.node.NIC.Read(p, bytes)
		return
	}
	attempt := 0
	for {
		_, res := t.node.NIC.TryReadWith(p, bytes, retryAttemptTimeout, inj)
		if res == nic.ReadOK {
			return
		}
		if res == nic.ReadTimeout {
			t.FaultTimeouts.Inc()
		}
		attempt++
		if attempt >= retryMaxAttempts {
			t.FaultGiveUps.Inc()
			t.degradedWait(p, inj)
			attempt = 0
			continue
		}
		t.FaultRetries.Inc()
		d := inj.Jitter(retryBackoff(attempt), retryJitterFrac)
		t0 := p.Now()
		p.Sleep(d)
		t.RetryWait.Record(int64(p.Now() - t0))
	}
}

// degradedWait parks p until the given injector's next scheduled recovery
// (or one MaxBackoff when the injector reports the node up but ops keep
// failing), accounting the time against this tenant's Degraded spans.
// This is the degraded mode: fault-path threads stop hammering a dead
// link and the time they lose is observable in the tenant's Metrics.
func (t *Tenant) degradedWait(p *sim.Proc, inj *faultinject.Injector) {
	now := p.Now()
	until := inj.NextRecovery(now)
	if until <= now {
		until = now + retryMaxBackoff
	}
	t.Degraded.Enter(int64(now))
	p.Sleep(until - now)
	t.Degraded.Exit(int64(p.Now()))
}

// evictorDegradedWait parks an evictor until the node injector's next
// scheduled recovery. Evictors serve every tenant, so the lost time is
// entered into all tenants' Degraded spans (in id order); a single-tenant
// node degenerates to exactly the old shared-span accounting, where
// overlapping fault-path and evictor episodes merge into one span.
func (n *Node) evictorDegradedWait(p *sim.Proc) {
	now := p.Now()
	until := n.FaultInj.NextRecovery(now)
	if until <= now {
		until = now + retryMaxBackoff
	}
	for _, t := range n.tenants {
		t.Degraded.Enter(int64(now))
	}
	p.Sleep(until - now)
	end := int64(p.Now())
	for _, t := range n.tenants {
		t.Degraded.Exit(end)
	}
}

// awaitWriteback waits for the batch's RDMA write and, when the node
// fault injector drops it, re-posts the write until it sticks — an
// eviction may not reclaim frames whose content never reached the far
// node. Consecutive failures back off exponentially; during outages the
// evictor throttles in degraded mode instead of spinning. With no
// injector the completion cannot fail and this is exactly one Wait.
func (n *Node) awaitWriteback(p *sim.Proc, eb *ebatch) {
	c := eb.rdma
	attempt := 0
	for c != nil {
		c.Wait(p)
		if !c.Failed() {
			return
		}
		if c.TimedOut() {
			n.EvictTimeouts.Inc()
		}
		n.EvictRetries.Inc()
		attempt++
		if n.FaultInj.Down(p.Now()) {
			n.evictorDegradedWait(p)
			attempt = 0
		} else {
			p.Sleep(n.FaultInj.Jitter(retryBackoff(attempt), retryJitterFrac))
		}
		c = n.NIC.TryPostWrite(p, eb.wbBytes, retryAttemptTimeout)
	}
}
