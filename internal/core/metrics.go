package core

import (
	"fmt"
	"strings"

	"mage/internal/invariant"
	"mage/internal/sim"
)

// Breakdown component labels (Figs 6 and 16).
const (
	CompRDMA   = "rdma-read"
	CompTLB    = "tlb-flush"
	CompAcct   = "page-accounting"
	CompAlloc  = "mem-circulation"
	CompOthers = "others"
)

// Metrics is a point-in-time measurement snapshot of a system.
type Metrics struct {
	System string

	MajorFaults  uint64
	MinorFaults  uint64
	SyncEvicts   uint64
	EvictedPages uint64
	Prefetched   uint64
	PrefetchDrop uint64

	// Fault latency distribution (ns).
	FaultMeanNs float64
	FaultP50Ns  int64
	FaultP99Ns  int64
	FaultMaxNs  int64

	// Per-fault latency breakdown (ns/op), keyed by the Comp* labels.
	BreakdownNs map[string]float64

	// TLB / IPI behaviour (Fig 7).
	Shootdowns         uint64
	IPIsSent           uint64
	ShootdownMeanNs    float64
	ShootdownP99Ns     int64
	IPIDeliveryMeanNs  float64
	IPIDeliveryP99Ns   int64
	TLBPagesInvalidate uint64

	// Network.
	RxGbps     float64
	TxGbps     float64
	RdmaReads  uint64
	RdmaWrites uint64

	// Contention (cumulative lock wait, ns).
	AcctLockWaitNs  int64
	AllocLockWaitNs int64
	SwapLockWaitNs  int64
	PTLockWaitNs    int64
	FreeWaitNs      int64

	// DedupWaits counts faults absorbed by in-flight fetches.
	DedupWaits uint64

	// Robustness / fault injection (all zero without a FaultPlan).
	FaultRetries  uint64 // fault-path attempts retried after NACK/timeout
	FaultTimeouts uint64 // fault-path attempts that burned a full AttemptTimeout
	FaultGiveUps  uint64 // fault-path rounds abandoned into degraded mode
	EvictRetries  uint64 // writeback posts repeated after a dropped write
	EvictTimeouts uint64 // writeback drops that were timeouts
	RetryWaits    uint64 // backoff sleeps taken
	RetryWaitNs   int64  // total virtual time spent in backoff sleeps
	DegradedNs    int64  // total virtual time inside degraded mode
	DegradedSpans uint64 // distinct degraded episodes
	// Injected-fault tallies from the injector's own counters.
	InjReadNacks  uint64
	InjWriteNacks uint64
	InjTimeouts   uint64
	InjSpikes     uint64

	// Cross-node eviction (all zero off-rack). The node-side counters
	// are shared, reported as observed by every tenant like the other
	// substrate metrics; BorrowFetches is the tenant's own.
	BorrowsOut     uint64 // victim pages lent to a neighbour instead of swapped
	BorrowsHosted  uint64 // guest pages this node accepted for neighbours
	BorrowReclaims uint64 // guest pages pushed back to owners under host pressure
	BorrowFetches  uint64 // borrowed pages this tenant faulted home over the fabric
}

// Snapshot collects one tenant's metrics; elapsed is used for rate
// computations. Per-tenant quantities (faults, latency, retry state,
// its address space's lock waits) come from the tenant; node-shared
// quantities (shootdowns, NIC, allocator/accounting/swap contention,
// eviction-side retries) are reported as observed by every tenant, since
// the contention they measure is the shared substrate's.
func (t *Tenant) Snapshot(elapsed sim.Time) Metrics {
	n := t.node
	if invariant.Enabled {
		n.checkAccounting()
	}
	m := Metrics{
		System:       t.Spec.Name,
		MajorFaults:  t.MajorFaults.Value(),
		MinorFaults:  t.MinorFaults.Value(),
		SyncEvicts:   t.SyncEvicts.Value(),
		EvictedPages: t.EvictedPages.Value(),
		Prefetched:   t.Prefetched.Value(),
		PrefetchDrop: t.PrefetchDrop.Value(),

		FaultMeanNs: t.FaultLatency.Mean(),
		FaultP50Ns:  t.FaultLatency.P50(),
		FaultP99Ns:  t.FaultLatency.P99(),
		FaultMaxNs:  t.FaultLatency.Max(),

		BreakdownNs: make(map[string]float64),

		Shootdowns:         n.Shooter.Shootdowns.Value(),
		IPIsSent:           n.Fabric.IPIsSent.Value(),
		ShootdownMeanNs:    n.Shooter.Latency.Mean(),
		ShootdownP99Ns:     n.Shooter.Latency.P99(),
		IPIDeliveryMeanNs:  n.Fabric.DeliveryLatency.Mean(),
		IPIDeliveryP99Ns:   n.Fabric.DeliveryLatency.P99(),
		TLBPagesInvalidate: n.Shooter.PagesInvalidated.Value(),

		RxGbps:     n.NIC.RxGbps(elapsed),
		TxGbps:     n.NIC.TxGbps(elapsed),
		RdmaReads:  n.NIC.Reads.Value(),
		RdmaWrites: n.NIC.Writes.Value(),

		AcctLockWaitNs:  n.Acct.LockWaitNs(),
		AllocLockWaitNs: n.Alloc.LockWaitNs(),
		SwapLockWaitNs:  n.Swap.LockWaitNs(),
		PTLockWaitNs:    t.AS.LockWaitNs(),
		FreeWaitNs:      t.FreeWaitNs,

		DedupWaits: t.AS.DedupWaits.Value(),

		FaultRetries:  t.FaultRetries.Value(),
		FaultTimeouts: t.FaultTimeouts.Value(),
		FaultGiveUps:  t.FaultGiveUps.Value(),
		EvictRetries:  n.EvictRetries.Value(),
		EvictTimeouts: n.EvictTimeouts.Value(),
		RetryWaits:    t.RetryWait.Count(),
		RetryWaitNs:   t.RetryWait.Sum(),
		DegradedNs:    t.Degraded.TotalAt(int64(elapsed)),
		DegradedSpans: t.Degraded.Count(),

		BorrowsOut:     n.BorrowsOut.Value(),
		BorrowsHosted:  n.BorrowsHosted.Value(),
		BorrowReclaims: n.BorrowReclaims.Value(),
		BorrowFetches:  t.BorrowFetches.Value(),
	}
	// Injected-fault tallies: the tenant's own injector plus the node-wide
	// one when both exist (they are distinct fault sources; a tenant
	// without its own plan sees exactly the node injector, preserving the
	// pre-split report).
	if in := t.Inj; in != nil {
		m.InjReadNacks += in.ReadNacks.Value()
		m.InjWriteNacks += in.WriteNacks.Value()
		m.InjTimeouts += in.ReadTimeouts.Value() + in.WriteTimeouts.Value()
		m.InjSpikes += in.Spikes.Value()
	}
	if in := n.FaultInj; in != nil {
		m.InjReadNacks += in.ReadNacks.Value()
		m.InjWriteNacks += in.WriteNacks.Value()
		m.InjTimeouts += in.ReadTimeouts.Value() + in.WriteTimeouts.Value()
		m.InjSpikes += in.Spikes.Value()
	}
	for _, c := range t.FaultBreak.Components() {
		m.BreakdownNs[c] = t.FaultBreak.PerOp(c)
	}
	return m
}

func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: faults=%d (minor %d, dedup %d) evicted=%d sync=%d",
		m.System, m.MajorFaults, m.MinorFaults, m.DedupWaits, m.EvictedPages, m.SyncEvicts)
	fmt.Fprintf(&b, " fault[mean=%.0fns p99=%dns]", m.FaultMeanNs, m.FaultP99Ns)
	fmt.Fprintf(&b, " tlb[n=%d mean=%.0fns]", m.Shootdowns, m.ShootdownMeanNs)
	fmt.Fprintf(&b, " net[rx=%.1f tx=%.1f Gbps]", m.RxGbps, m.TxGbps)
	return b.String()
}
