package core

import (
	"fmt"

	"mage/internal/apic"
	"mage/internal/faultinject"
	"mage/internal/invariant"
	"mage/internal/lru"
	"mage/internal/nic"
	"mage/internal/palloc"
	"mage/internal/pgtable"
	"mage/internal/sim"
	"mage/internal/stats"
	"mage/internal/swapspace"
	"mage/internal/tlbsim"
	"mage/internal/topo"
	"mage/internal/trace"
)

// tenantPageBits is how many low bits of a shared-accounting key carry a
// tenant-local page number; the bits above hold the owning tenant's id.
// Tenant 0's keys therefore equal its raw page numbers, which keeps a
// single-tenant Node's interaction with the accounting structures
// bit-identical to the pre-split core.
const tenantPageBits = 44

// TenantSpec describes one application co-located on a Node.
type TenantSpec struct {
	// Name labels the tenant in results and traces (default "tenant-<i>").
	Name string
	// AppThreads is this tenant's application thread count.
	AppThreads int
	// TotalPages is this tenant's working-set size in 4 KB pages.
	TotalPages uint64
	// FaultPlan, when non-nil and enabled, gives the tenant its own
	// deterministic fault injector for remote reads — modeling a per-tenant
	// RDMA connection whose weather is independent of the node-wide plan in
	// Config.FaultPlan (which still governs eviction writebacks, a node
	// responsibility).
	FaultPlan *faultinject.Plan
}

// Node owns everything the co-located tenants share: the simulation
// engine, machine topology, interrupt fabric, TLB shootdown machinery,
// NIC, local frame source, remote swap allocator, the global page
// accounting all tenants' resident pages circulate through, the
// free-wait/evict-kick queues, and the eviction threads. Per-application
// state (address space, remote-slot table, core affinity, metrics,
// retry/degraded state) lives in Tenant.
//
// Eviction pressure is a node-wide property: victim selection scans the
// shared accounting across every tenant's pages, so one tenant's fault
// storm evicts another's cold pages — the co-location regime the paper's
// fault/eviction balance is about.
type Node struct {
	Cfg   Config
	Costs CostModel

	Eng       *sim.Engine
	Machine   *topo.Machine
	Fabric    *apic.Fabric
	Shooter   *tlbsim.Shooter
	NIC       *nic.NIC
	Alloc     palloc.Source
	Swap      swapspace.Allocator
	Acct      lru.Accounting
	Placement topo.Placement

	tenants []*Tenant

	// rack and rackIndex are set when the node is part of a Rack: several
	// nodes sharing one engine, joined by a simulated fabric. Both stay
	// zero for a standalone node, and every rack-only code path is gated
	// on rack != nil so a standalone node's event sequence is untouched.
	rack      *Rack
	rackIndex int
	// hosted lists guest pages this node holds for neighbours, in arrival
	// order; retired entries (owner fetched the page home) stay in the
	// slice as husks until a reclaim scan drops them, so hostedLive is the
	// authoritative live count.
	hosted     []*borrowedPage
	hostedLive int
	// borrowWait parks fault-path threads whose borrowed page is mid-push
	// back to this node's swap by its host (see claimBorrowed).
	borrowWait sim.WaitQueue

	// Borrow/reclaim accounting (all zero off-rack).
	BorrowsOut     stats.Counter // victim pages lent to a neighbour instead of swapped
	BorrowsHosted  stats.Counter // guest pages accepted for neighbours
	BorrowReclaims stats.Counter // guest pages pushed back to owners under pressure

	freeWait  sim.WaitQueue
	evictKick sim.WaitQueue
	stopped   bool
	// inflight counts frames unmapped by eviction but not yet reclaimed
	// (sitting in the TSB/RSB pipeline stages); they are committed to
	// becoming free, so pressure checks must count them or the pipeline
	// over-evicts and the application refaults the overshoot.
	inflight int

	// prepopulated counts frames handed out by Prepopulate across all
	// tenants: the warm-start budget is a property of the shared local
	// DRAM pool, not of any one tenant.
	prepopulated int

	// Trace, when non-nil, records fault and eviction spans for export
	// as a Chrome trace (see internal/trace). Events are tagged with the
	// owning tenant's id in the PID field.
	Trace *trace.Recorder

	// FaultInj is the node-wide injector shared with the NIC (nil unless
	// Cfg.FaultPlan enables injection). It governs eviction writebacks and
	// the reads of any tenant without its own plan. The eviction-side
	// retry counters live here because writeback is a node responsibility.
	FaultInj      *faultinject.Injector
	EvictRetries  stats.Counter // writeback posts repeated after a dropped write
	EvictTimeouts stats.Counter // writeback drops that were timeouts
}

// NewNode assembles a node shared by the given tenants on a fresh engine.
// cfg describes the shared substrate; its AppThreads and TotalPages are
// overwritten with the tenant sums. An empty specs slice builds a
// single-tenant node shaped by cfg alone, which Node.Run drives.
func NewNode(cfg Config, specs []TenantSpec) (*Node, error) {
	return newNodeOn(sim.NewEngine(), cfg, specs)
}

// newNodeOn is NewNode on a caller-owned engine — the seam NewRack uses
// to put several nodes on one shared engine. Construction itself
// schedules no events, so a node built here behaves identically to one
// built by NewNode.
func newNodeOn(eng *sim.Engine, cfg Config, specs []TenantSpec) (*Node, error) {
	if len(specs) == 0 {
		specs = []TenantSpec{{Name: cfg.Name, AppThreads: cfg.AppThreads, TotalPages: cfg.TotalPages}}
	} else {
		specs = append([]TenantSpec(nil), specs...) // callers keep their slice
	}
	sumThreads := 0
	var sumPages uint64
	for i := range specs {
		sp := &specs[i]
		if sp.Name == "" {
			sp.Name = fmt.Sprintf("tenant-%d", i)
		}
		if sp.AppThreads <= 0 {
			return nil, fmt.Errorf("core: tenant %d: AppThreads = %d", i, sp.AppThreads)
		}
		if sp.TotalPages == 0 {
			return nil, fmt.Errorf("core: tenant %d: TotalPages = 0", i)
		}
		if sp.TotalPages >= 1<<tenantPageBits {
			return nil, fmt.Errorf("core: tenant %d: TotalPages %d overflows the %d-bit page key",
				i, sp.TotalPages, tenantPageBits)
		}
		sumThreads += sp.AppThreads
		sumPages += sp.TotalPages
	}
	// The node-wide Config carries the aggregate load; per-tenant shapes
	// live in the specs.
	cfg.AppThreads = sumThreads
	cfg.TotalPages = sumPages
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) > 1 && cfg.Ideal {
		return nil, fmt.Errorf("core: the Ideal analytical baseline is single-tenant only")
	}
	costs := DefaultCostModel(cfg)
	machine := topo.NewMachine(cfg.Sockets, cfg.CoresPerSocket)
	// Per-core TLBs cache tenant-local page numbers, so two tenants on one
	// core would alias each other's translations. Multi-tenant placements
	// therefore require a dedicated core per thread.
	if len(specs) > 1 && sumThreads > machine.NumCores() {
		return nil, fmt.Errorf("core: %d app threads across %d tenants exceed %d cores (tenants must not share TLBs)",
			sumThreads, len(specs), machine.NumCores())
	}

	n := &Node{
		Cfg:     cfg,
		Costs:   costs,
		Eng:     eng,
		Machine: machine,
		Fabric:  apic.NewFabric(eng, machine, costs.APIC),
		NIC:     nic.New(eng, cfg.Stack, costs.NIC),
	}
	if cfg.FaultPlan.Enabled() {
		inj, err := faultinject.New(*cfg.FaultPlan)
		if err != nil {
			return nil, err
		}
		n.FaultInj = inj
		n.NIC.SetFaultInjector(inj)
	}
	n.Shooter = tlbsim.NewShooter(n.Fabric, machine, costs.TLB, tlbEntries)

	var swapBase uint64
	for i, sp := range specs {
		t := &Tenant{
			node:         n,
			ID:           i,
			Spec:         sp,
			swapBase:     swapBase,
			FaultLatency: stats.NewHistogram(),
			FaultBreak:   stats.NewBreakdown(),
			RetryWait:    stats.NewHistogram(),
		}
		t.AS = pgtable.New(eng, sp.TotalPages, cfg.PTLock, ptShards, costs.PT)
		t.AS.Label = fmt.Sprintf("t%d", i)
		t.AS.Map(0, sp.TotalPages, "wss")
		if sp.FaultPlan.Enabled() {
			inj, err := faultinject.New(*sp.FaultPlan)
			if err != nil {
				return nil, err
			}
			t.Inj = inj
		}
		n.tenants = append(n.tenants, t)
		swapBase += sp.TotalPages
	}

	switch cfg.Allocator {
	case AllocGlobalLock:
		n.Alloc = palloc.NewGlobalLock(eng, cfg.LocalMemPages, costs.Alloc)
	case AllocPerCPUCache:
		n.Alloc = palloc.NewPerCPUCache(eng, machine, cfg.LocalMemPages, allocBatch, costs.Alloc)
	case AllocMultiLayer:
		n.Alloc = palloc.NewMultiLayer(eng, machine, cfg.LocalMemPages, allocBatch, costs.Alloc)
	default:
		return nil, fmt.Errorf("core: unknown allocator kind %v", cfg.Allocator)
	}

	switch cfg.Swap {
	case SwapGlobalMap:
		gm := swapspace.NewGlobalSwapMap(eng, int(cfg.TotalPages)+cfg.LocalMemPages, costs.Swap)
		// Every tenant's pages start swapped out at identity slots in the
		// shared device — tenant i's page p at slot swapBase_i + p — as if
		// the working sets were pre-evicted with madvise_pageout (§3.2).
		gm.ReserveFirst(int(cfg.TotalPages))
		n.Swap = gm
		for _, t := range n.tenants {
			t.remoteOf = make([]swapspace.Entry, t.Spec.TotalPages)
			for i := range t.remoteOf {
				t.remoteOf[i] = swapspace.Entry(t.swapBase + uint64(i))
			}
		}
	case SwapDirectMap:
		n.Swap = swapspace.NewDirectMap(int(cfg.TotalPages))
	default:
		return nil, fmt.Errorf("core: unknown swap kind %v", cfg.Swap)
	}

	switch cfg.Accounting {
	case AcctGlobalLRU:
		n.Acct = lru.NewGlobal(eng, costs.LRU)
	case AcctPartitioned:
		n.Acct = lru.NewPartitioned(eng, cfg.EvictorThreads, costs.LRU)
	case AcctPerCPUFIFO:
		n.Acct = lru.NewPerCPUFIFO(eng, machine, cfg.EvictorThreads, costs.LRU)
	case AcctS3FIFO:
		n.Acct = lru.NewS3FIFO(eng, cfg.LocalMemPages/10+1, costs.LRU)
	case AcctTwoList:
		n.Acct = lru.NewTwoList(eng, costs.LRU)
	default:
		return nil, fmt.Errorf("core: unknown accounting kind %v", cfg.Accounting)
	}

	n.Placement = machine.Place(cfg.AppThreads, cfg.EvictorThreads)
	tbase := 0
	for _, t := range n.tenants {
		t.Cores = n.Placement.App[tbase : tbase+t.Spec.AppThreads]
		t.appCores = topo.DistinctCores(t.Cores)
		tbase += t.Spec.AppThreads
	}
	return n, nil
}

// Tenants returns the node's tenants in id order.
func (n *Node) Tenants() []*Tenant { return n.tenants }

// HostedPages is how many pages of other nodes this node holds.
func (n *Node) HostedPages() int { return n.hostedLive }

// procName prefixes a proc name with the node's rack index so traces
// from different nodes stay distinguishable on the shared engine. Off
// rack the name passes through untouched.
func (n *Node) procName(name string) string {
	if n.rack == nil {
		return name
	}
	return fmt.Sprintf("n%d.%s", n.rackIndex, name)
}

// tenantPage splits a shared-accounting key into its owning tenant and
// tenant-local page number.
func (n *Node) tenantPage(key uint64) (*Tenant, uint64) {
	return n.tenants[key>>tenantPageBits], key & (1<<tenantPageBits - 1)
}

// freeFrames returns the free frames reachable by any core: watermark and
// eviction-pressure decisions must not count frames stranded in other
// cores' private caches.
func (n *Node) freeFrames() int { return n.Alloc.SharedFree() }

// underPressure reports whether eviction should run.
func (n *Node) underPressure() bool {
	return n.evictionDeficit() > 0
}

// evictionDeficit returns how many more frames eviction must free to
// reach the high watermark, accounting for frames already committed in
// the pipeline. Blocked faulting threads always add to the deficit:
// "free" frames may be stranded in other cores' caches, unreachable to
// the waiters, so their demand must be served by fresh evictions.
func (n *Node) evictionDeficit() int {
	d := n.Cfg.highWatermarkFrames() - n.freeFrames() - n.inflight
	if d < 0 {
		d = 0
	}
	return d + n.freeWait.Len()
}

// kickEvictors wakes eviction threads.
func (n *Node) kickEvictors() { n.evictKick.Broadcast() }

// lendBudget is how many frames this node can host for neighbours while
// keeping twice its high watermark free: hosting must never shove the
// host itself into eviction, or one node's pressure would ricochet
// around the rack as fast as it was relieved.
func (n *Node) lendBudget() int {
	b := n.freeFrames() - 2*n.Cfg.highWatermarkFrames()
	if b < 0 {
		b = 0
	}
	return b
}

// PrepopBudget returns how many more pages Prepopulate can make resident
// before the warm start would eat into the free-page headroom the
// evictors defend (Ideal mode has no evictors and may fill local memory
// completely). The budget is node-wide: co-located tenants that want a
// WSS-proportional warm start should divide this among themselves before
// calling Prepopulate.
func (n *Node) PrepopBudget() int {
	b := n.Cfg.LocalMemPages - n.Cfg.highWatermarkFrames() - n.prepopulated
	if n.Cfg.Ideal {
		b = n.Cfg.LocalMemPages - n.prepopulated
	}
	if b < 0 {
		b = 0
	}
	return b
}

// checkAccounting asserts the cross-module frame-conservation invariants
// when built with -tags magecheck. Frames mid-transition (allocated but
// not yet installed, or unmapped but not yet freed) are neither free nor
// resident, so the conservation laws are inequalities except at quiescence.
// Residency is summed across tenants: the local-DRAM pool is shared.
func (n *Node) checkAccounting() {
	invariant.Assert(n.inflight >= 0, "core: inflight count %d negative", n.inflight)
	resident := 0
	for _, t := range n.tenants {
		r := t.AS.Resident()
		invariant.Assert(r <= n.Cfg.LocalMemPages,
			"core: tenant %d: %d resident pages exceed %d local frames", t.ID, r, n.Cfg.LocalMemPages)
		resident += r
	}
	invariant.Assert(resident <= n.Cfg.LocalMemPages,
		"core: %d resident pages exceed %d local frames", resident, n.Cfg.LocalMemPages)
	// Overflow-safe form of free+resident <= total: resident <= total
	// was asserted just above, so the subtraction cannot wrap.
	invariant.Assert(n.Alloc.FreeFrames() <= n.Cfg.LocalMemPages-resident,
		"core: free %d + resident %d exceed %d local frames",
		n.Alloc.FreeFrames(), resident, n.Cfg.LocalMemPages)
	if n.Acct != nil {
		invariant.Assert(n.Acct.Len() <= resident,
			"core: accounting tracks %d pages but only %d are resident", n.Acct.Len(), resident)
	}
}

// Stop shuts down background eviction threads once the workload is done.
func (n *Node) Stop() {
	n.stopped = true
	n.evictKick.Broadcast()
}

// Stopped reports whether Stop has been called.
func (n *Node) Stopped() bool { return n.stopped }
