package memcluster

import (
	"sync/atomic" //magevet:ok lock-free robustness counters on a real network client
	"time"
)

// clusterCounters are the cluster-wide robustness counters, atomic so
// the data path never serializes on a stats lock.
type clusterCounters struct {
	failovers      atomic.Uint64
	flaps          atomic.Uint64
	readmissions   atomic.Uint64
	resyncedPages  atomic.Uint64
	degradedWrites atomic.Uint64
}

// ReplicaStats is one replica's health and robustness snapshot.
type ReplicaStats struct {
	Addr      string
	Healthy   bool
	Resyncing bool
	// FreeBytes and InFlight are the replica's last STATS sample (its
	// current selection weight and load signal).
	FreeBytes int64
	InFlight  int64
	// Failovers counts ops that abandoned this replica for a peer.
	Failovers uint64
	// Flaps counts healthy→down transitions.
	Flaps uint64
	// Resyncs counts completed re-admissions.
	Resyncs uint64
	// DegradedNs is the total time this replica has spent down
	// (including the current outage when still down).
	DegradedNs int64
}

// ShardStats groups the replica snapshots of one shard.
type ShardStats struct {
	ID       uint64
	Replicas []ReplicaStats
}

// ClusterStats is a point-in-time snapshot of the cluster's topology
// and robustness counters.
type ClusterStats struct {
	Shards   int
	Replicas int // total replica count across shards
	// Failovers counts data-path ops that demoted a replica and moved
	// on to a peer.
	Failovers uint64
	// ProbeFlaps counts healthy→down transitions from any cause.
	ProbeFlaps uint64
	// Readmissions counts down replicas brought back (post-resync).
	Readmissions uint64
	// ResyncedPages counts pages copied by resyncs.
	ResyncedPages uint64
	// DegradedWrites counts writes acknowledged by fewer replicas
	// than the shard's full healthy set at op start.
	DegradedWrites uint64
	// DegradedNs sums every replica's down time.
	DegradedNs int64
	PerShard   []ShardStats
}

// Stats snapshots the cluster counters and per-replica health.
func (cl *Cluster) Stats() ClusterStats {
	now := time.Now() //magevet:ok degraded-time accounting on a real network client
	st := ClusterStats{
		Shards:         len(cl.shards),
		Failovers:      cl.stats.failovers.Load(),
		ProbeFlaps:     cl.stats.flaps.Load(),
		Readmissions:   cl.stats.readmissions.Load(),
		ResyncedPages:  cl.stats.resyncedPages.Load(),
		DegradedWrites: cl.stats.degradedWrites.Load(),
	}
	for _, sh := range cl.shards {
		sh.mu.Lock()
		ss := ShardStats{ID: sh.id}
		for _, r := range sh.replicas {
			rs := ReplicaStats{
				Addr:       r.addr,
				Healthy:    r.healthy,
				Resyncing:  r.resyncing,
				FreeBytes:  r.weight,
				InFlight:   r.inflight,
				Failovers:  r.failovers,
				Flaps:      r.flaps,
				Resyncs:    r.resyncs,
				DegradedNs: r.degradedNs,
			}
			if !r.healthy && !r.downSince.IsZero() {
				rs.DegradedNs += now.Sub(r.downSince).Nanoseconds()
			}
			st.DegradedNs += rs.DegradedNs
			st.Replicas++
			ss.Replicas = append(ss.Replicas, rs)
		}
		sh.mu.Unlock()
		st.PerShard = append(st.PerShard, ss)
	}
	return st
}
