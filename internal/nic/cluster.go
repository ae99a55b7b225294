package nic

import (
	"mage/internal/faultinject"
	"mage/internal/memcluster/placement"
	"mage/internal/sim"
	"mage/internal/stats"
)

// Cluster is the DES mirror of internal/memcluster: N shards × R
// replicas of far memory behind one NIC, with the same pure placement
// policy (rendezvous hashing over stable shard IDs, memory-weighted
// replica selection) and the same failover shape (one ladder of
// weighted draws, then a degraded tail; down replicas re-admitted
// after an exponential virtual-time backoff).
//
// Each replica carries its own fault injector, so an experiment can
// take one replica down while its peers stay up — the simulated twin
// of the kill-one-shard-mid-sweep chaos test the real cluster runs.
// Everything is deterministic: placement is pure, injector schedules
// are seeded, and health state advances only in virtual time.
type Cluster struct {
	n       *NIC
	ids     []uint64 // stable shard IDs, parallel to reps
	reps    [][]*clusterReplica
	reprobe sim.Time // base re-admission delay after a failure

	// Failovers counts reads that abandoned a replica for a peer;
	// FailedReads counts reads no replica could serve; Readmissions
	// counts down replicas returning to service.
	Failovers    stats.Counter
	FailedReads  stats.Counter
	Readmissions stats.Counter
	// ReadLatency records end-to-end read latency including failover
	// attempts — the distribution the real cluster's failover-read p99
	// benchmark pins.
	ReadLatency *stats.Histogram
}

type clusterReplica struct {
	inj       *faultinject.Injector
	healthy   bool
	downUntil sim.Time
	backoff   sim.Time
	weight    int64
}

// clusterReprobeDefault is the default virtual-time re-admission
// delay, doubled per consecutive failed re-probe (mirroring the real
// prober's exponential backoff).
const clusterReprobeDefault = 100 * sim.Microsecond

// NewCluster builds a shards × replicas cluster over one NIC.
// injs[s][r] is replica r of shard s's fault schedule (nil = never
// fails). Shard IDs are the canonical 1..N, so placement matches
// placement.ShardOf for the same count.
func NewCluster(n *NIC, injs [][]*faultinject.Injector) *Cluster {
	c := &Cluster{
		n:           n,
		reprobe:     clusterReprobeDefault,
		ReadLatency: stats.NewHistogram(),
	}
	for s, row := range injs {
		c.ids = append(c.ids, uint64(s)+1)
		var reps []*clusterReplica
		for _, inj := range row {
			reps = append(reps, &clusterReplica{inj: inj, healthy: true, weight: 1})
		}
		c.reps = append(c.reps, reps)
	}
	return c
}

// admit re-admits a replica whose virtual-time backoff has elapsed.
func (c *Cluster) admit(r *clusterReplica, now sim.Time) {
	if !r.healthy && now >= r.downUntil {
		r.healthy = true
		r.backoff = 0
		c.Readmissions.Inc()
	}
}

// demote takes a replica out of selection with exponential backoff.
func (c *Cluster) demote(r *clusterReplica, now sim.Time) {
	if r.backoff <= 0 {
		r.backoff = c.reprobe
	} else {
		r.backoff *= 2
	}
	if r.backoff > 64*c.reprobe {
		r.backoff = 64 * c.reprobe
	}
	r.healthy = false
	r.downUntil = now + r.backoff
}

// ladder builds the replica attempt order for key on one shard:
// weighted healthy draws first, then every replica as a degraded
// tail — the same shape as the real cluster's ladder.
func (c *Cluster) ladder(key uint64, reps []*clusterReplica, now sim.Time) []int {
	weights := make([]int64, len(reps))
	mask := make([]bool, len(reps))
	for i, r := range reps {
		c.admit(r, now)
		weights[i] = r.weight
		mask[i] = r.healthy
	}
	order := make([]int, 0, len(reps))
	taken := make([]bool, len(reps))
	for attempt := 0; attempt < len(reps); attempt++ {
		i := placement.SelectReplica(key, attempt, weights, mask)
		if i == -1 {
			break
		}
		taken[i] = true
		order = append(order, i)
		mask[i] = false
	}
	for i := range reps {
		if !taken[i] {
			order = append(order, i)
		}
	}
	return order
}

// TryReadKey reads the page keyed by key through the cluster: pick the
// owning shard, walk its replica ladder, and fail over on NACK or
// timeout exactly once per surviving replica. Returns the virtual time
// spent and the final result (ReadOK unless every replica failed).
func (c *Cluster) TryReadKey(p *sim.Proc, key uint64, bytes int64, timeout sim.Time) (sim.Time, ReadResult) {
	start := p.Now()
	si := placement.ShardOfIDs(key, c.ids)
	if si < 0 {
		return 0, ReadNack
	}
	reps := c.reps[si]
	last := ReadNack
	first := true
	for _, i := range c.ladder(key, reps, start) {
		r := reps[i]
		_, res := c.n.TryReadWith(p, bytes, timeout, r.inj)
		if res == ReadOK {
			d := p.Now() - start
			c.ReadLatency.Record(int64(d))
			return d, ReadOK
		}
		c.demote(r, p.Now())
		if !first || len(reps) > 1 {
			c.Failovers.Inc()
		}
		first = false
		last = res
	}
	c.FailedReads.Inc()
	return p.Now() - start, last
}

// TryWriteKey writes the page keyed by key to every healthy replica of
// the owning shard (the real cluster's replicated write). One
// completed write is success; replicas that drop the write demote.
func (c *Cluster) TryWriteKey(p *sim.Proc, key uint64, bytes int64, timeout sim.Time) (sim.Time, bool) {
	start := p.Now()
	si := placement.ShardOfIDs(key, c.ids)
	if si < 0 {
		return 0, false
	}
	reps := c.reps[si]
	var comps []*Completion
	var targets []*clusterReplica
	for _, r := range reps {
		c.admit(r, start)
		if !r.healthy {
			continue
		}
		comps = append(comps, c.n.TryPostWriteWith(p, bytes, timeout, r.inj))
		targets = append(targets, r)
	}
	acks := 0
	for i, comp := range comps {
		comp.Wait(p)
		if comp.Failed() {
			c.demote(targets[i], p.Now())
			continue
		}
		acks++
	}
	return p.Now() - start, acks > 0
}
