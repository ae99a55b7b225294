// Package core implements the paper's primary contribution: the fault-in
// and eviction paths of a page-based far-memory system, with the design
// axes of §4 exposed as configuration so the four compared systems
// (Hermit, DiLOS, Mage^LIB, Mage^LNX) and the paper's ablations are all
// instances of one assembly.
package core

import (
	"fmt"

	"mage/internal/faultinject"
	"mage/internal/nic"
	"mage/internal/pgtable"
)

// AccountingKind selects the page-accounting design (§4.2.2).
type AccountingKind int

const (
	// AcctGlobalLRU is the single system-wide list (Linux/OSv, Hermit/DiLOS).
	AcctGlobalLRU AccountingKind = iota
	// AcctPartitioned is MAGE's per-evictor independent lists.
	AcctPartitioned
	// AcctPerCPUFIFO is Mage^LNX's per-CPU FIFO queues.
	AcctPerCPUFIFO
	// AcctS3FIFO is the S3-FIFO policy adapted to accessed-bit hardware
	// (extension; see internal/lru/s3fifo.go and §4.2.2's discussion).
	AcctS3FIFO
	// AcctTwoList is the classic Linux active/inactive two-list design
	// (extension baseline; internal/lru/twolist.go).
	AcctTwoList
)

func (k AccountingKind) String() string {
	switch k {
	case AcctGlobalLRU:
		return "global-lru"
	case AcctPartitioned:
		return "partitioned"
	case AcctPerCPUFIFO:
		return "per-cpu-fifo"
	case AcctS3FIFO:
		return "s3fifo"
	case AcctTwoList:
		return "two-list"
	}
	return fmt.Sprintf("AccountingKind(%d)", int(k))
}

// AllocatorKind selects the local frame-circulation design (§4.2.3).
type AllocatorKind int

const (
	// AllocGlobalLock is a buddy allocator behind one lock (DiLOS).
	AllocGlobalLock AllocatorKind = iota
	// AllocPerCPUCache is the Linux per-CPU page cache (Hermit).
	AllocPerCPUCache
	// AllocMultiLayer is MAGE's three-level allocator.
	AllocMultiLayer
)

func (k AllocatorKind) String() string {
	switch k {
	case AllocGlobalLock:
		return "global-lock"
	case AllocPerCPUCache:
		return "per-cpu-cache"
	case AllocMultiLayer:
		return "multi-layer"
	}
	return fmt.Sprintf("AllocatorKind(%d)", int(k))
}

// SwapKind selects the remote allocator (EP₃).
type SwapKind int

const (
	// SwapGlobalMap is the Linux swap bitmap behind a global lock.
	SwapGlobalMap SwapKind = iota
	// SwapDirectMap is VMA-level direct mapping (no allocation).
	SwapDirectMap
)

func (k SwapKind) String() string {
	if k == SwapGlobalMap {
		return "global-map"
	}
	return "direct-map"
}

// Config describes one far-memory system instance.
type Config struct {
	// Name labels the system in reports.
	Name string

	// Sockets and CoresPerSocket give the machine shape (paper: 2 × 28).
	Sockets        int
	CoresPerSocket int

	// AppThreads is the number of application threads.
	AppThreads int

	// TotalPages is the application's working-set size in 4 KB pages.
	TotalPages uint64
	// LocalMemPages is the local DRAM quota in frames. TotalPages -
	// LocalMemPages pages live remotely at steady state.
	LocalMemPages int

	// EvictorThreads is the number of dedicated eviction threads (the
	// paper's sweet spot is 4).
	EvictorThreads int
	// SyncEviction allows faulting threads to run eviction inline when no
	// free frame is available. MAGE forbids this (P1). An inline batch is
	// min(32, BatchSize) pages (syncBatch).
	SyncEviction bool
	// Pipelined enables cross-batch pipelined eviction (P2, Fig 8).
	Pipelined bool
	// BatchSize is the eviction batch size in pages.
	BatchSize int
	// TLBBatch is the maximum pages covered by one shootdown (§4.2.1).
	TLBBatch int

	// Accounting selects the page-accounting structure; HonorAccessedBit
	// enables the second-chance check during unmap (false for Mage^LNX's
	// FIFO design, which trades accuracy for contention).
	Accounting       AccountingKind
	HonorAccessedBit bool

	// Allocator selects the local frame source; its layers trade
	// allocBatch frames at a time.
	Allocator AllocatorKind

	// Swap selects the remote allocator.
	Swap SwapKind

	// PTLock selects page-table synchronization; pgtable.LockSharded
	// splits the table into ptShards shards.
	PTLock pgtable.LockModel

	// Stack selects the RDMA host stack.
	Stack nic.StackKind
	// Backend selects the swap transport (RDMA default; NVMe and zswap
	// are extension cost models per the paper's conclusion).
	Backend nic.Backend
	// Virtualized systems pay a VM-exit per delivered IPI.
	Virtualized bool
	// LinuxMM charges Linux's cross-application memory-management costs
	// (rmap, cgroup accounting, swap-cache maintenance) per page.
	LinuxMM bool

	// Prefetch enables each app thread's stride detector, whose window
	// ramps up to prefetchDegree pages.
	Prefetch bool

	// Ideal selects the analytical zero-software-overhead baseline of
	// §3.1: faults cost only data movement, eviction is free and instant.
	Ideal bool

	// FaultPlan, when non-nil and enabled, attaches a deterministic
	// fault injector (internal/faultinject) to the system's NIC: remote
	// reads and writeback writes can NACK, time out, spike, or run over
	// a degraded link per the plan's seeded schedule. nil (the default)
	// keeps the fault-free paths event-for-event identical to a build
	// without fault injection. Failed ops are retried under the fixed
	// policy of retry.go.
	FaultPlan *faultinject.Plan
}

// Sizes every preset shares: no experiment varies them.
const (
	// allocBatch is the frames one allocator layer moves to another.
	allocBatch = 32
	// ptShards is the shard count of pgtable.LockSharded.
	ptShards = 64
	// tlbEntries is the per-core TLB capacity.
	tlbEntries = 1536
	// prefetchDegree caps a stride detector's ramped window, in pages.
	prefetchDegree = 16
)

// Validate checks internal consistency and fills defaulted fields.
func (c *Config) Validate() error {
	if c.Sockets == 0 {
		c.Sockets = 2
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 28
	}
	if c.AppThreads <= 0 {
		return fmt.Errorf("core: AppThreads = %d", c.AppThreads)
	}
	if c.TotalPages == 0 {
		return fmt.Errorf("core: TotalPages = 0")
	}
	if c.LocalMemPages <= 0 {
		return fmt.Errorf("core: LocalMemPages = %d", c.LocalMemPages)
	}
	if c.EvictorThreads <= 0 {
		c.EvictorThreads = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.TLBBatch <= 0 {
		c.TLBBatch = c.BatchSize
	}
	// Clamp batch sizes for small configurations: an eviction batch must
	// be a small fraction of local memory or the system degenerates into
	// whole-working-set thrashing (only relevant for scaled-down tests;
	// real configurations have LocalMemPages >> 8×BatchSize).
	if maxBatch := c.LocalMemPages / 8; c.BatchSize > maxBatch {
		c.BatchSize = max(maxBatch, 1)
	}
	if c.TLBBatch > c.BatchSize {
		c.TLBBatch = c.BatchSize
	}
	return nil
}

// syncBatch is the batch size of inline (synchronous) eviction.
func (c *Config) syncBatch() int { return min(32, c.BatchSize) }

// lowWatermarkFrames returns the free-frame count below which eviction is
// triggered: ~2% of local memory, like a real kernel's min watermark.
func (c *Config) lowWatermarkFrames() int {
	n := int(float64(c.LocalMemPages) * 0.02)
	if n < 32 {
		n = 32
	}
	if cap := c.LocalMemPages / 8; n > cap {
		n = cap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// highWatermarkFrames is the free-frame level eviction replenishes to
// (~4-5% of local memory).
func (c *Config) highWatermarkFrames() int {
	n := int(float64(c.LocalMemPages) * 0.04)
	low := c.lowWatermarkFrames()
	if m := low + 16; n < m {
		n = m
	}
	if cap := c.LocalMemPages / 4; n > cap {
		n = cap
	}
	if n <= low {
		n = low + 1
	}
	return n
}

// Hermit returns the Hermit baseline: Linux 4.15 + feedback-directed
// asynchrony, run on bare metal (§6.1). Its bottlenecks are the global
// LRU, the swap-map lock, and synchronous eviction fallback.
func Hermit(appThreads int, totalPages uint64, localPages int) Config {
	return Config{
		Name:             "Hermit",
		AppThreads:       appThreads,
		TotalPages:       totalPages,
		LocalMemPages:    localPages,
		EvictorThreads:   4,
		SyncEviction:     true,
		Pipelined:        false,
		BatchSize:        64,
		TLBBatch:         64,
		Accounting:       AcctGlobalLRU,
		HonorAccessedBit: true,
		Allocator:        AllocPerCPUCache,
		Swap:             SwapGlobalMap,
		PTLock:           pgtable.LockGlobal,
		Stack:            nic.StackKernel,
		Virtualized:      false,
		LinuxMM:          true,
		Prefetch:         false,
	}
}

// DiLOS returns the DiLOS baseline: OSv unikernel with a unified page
// table, direct remote mapping, and a global physical allocator lock,
// extended (as in the paper) with multiple eviction threads and
// synchronous eviction.
func DiLOS(appThreads int, totalPages uint64, localPages int) Config {
	return Config{
		Name:             "DiLOS",
		AppThreads:       appThreads,
		TotalPages:       totalPages,
		LocalMemPages:    localPages,
		EvictorThreads:   4,
		SyncEviction:     true,
		Pipelined:        false,
		BatchSize:        64,
		TLBBatch:         64,
		Accounting:       AcctGlobalLRU,
		HonorAccessedBit: true,
		Allocator:        AllocGlobalLock,
		Swap:             SwapDirectMap,
		PTLock:           pgtable.LockPerPTE,
		Stack:            nic.StackLibOS,
		Virtualized:      true,
		LinuxMM:          false,
		Prefetch:         false,
	}
}

// MageLib returns Mage^LIB: the OSv-based MAGE with all three principles
// applied (§5.2).
func MageLib(appThreads int, totalPages uint64, localPages int) Config {
	return Config{
		Name:             "MageLib",
		AppThreads:       appThreads,
		TotalPages:       totalPages,
		LocalMemPages:    localPages,
		EvictorThreads:   4,
		SyncEviction:     false,
		Pipelined:        true,
		BatchSize:        256,
		TLBBatch:         256,
		Accounting:       AcctPartitioned,
		HonorAccessedBit: true,
		Allocator:        AllocMultiLayer,
		Swap:             SwapDirectMap,
		PTLock:           pgtable.LockPerPTE,
		Stack:            nic.StackLibOS,
		Virtualized:      true,
		LinuxMM:          false,
		Prefetch:         false,
	}
}

// MageLnx returns Mage^LNX: the Linux-based MAGE (§5.1) — FIFO in-use
// queues, interval-tree address-space shards, bypassed swap layer and
// allocator, but the kernel RDMA stack and virtualization costs remain.
func MageLnx(appThreads int, totalPages uint64, localPages int) Config {
	return Config{
		Name:             "MageLnx",
		AppThreads:       appThreads,
		TotalPages:       totalPages,
		LocalMemPages:    localPages,
		EvictorThreads:   4,
		SyncEviction:     false,
		Pipelined:        true,
		BatchSize:        256,
		TLBBatch:         256,
		Accounting:       AcctPerCPUFIFO,
		HonorAccessedBit: false,
		Allocator:        AllocMultiLayer,
		Swap:             SwapDirectMap,
		PTLock:           pgtable.LockSharded,
		Stack:            nic.StackKernel,
		Virtualized:      true,
		LinuxMM:          false,
		Prefetch:         false,
	}
}

// Ideal returns the analytical baseline system: zero software overhead,
// only the RDMA data-movement cost per fault (§3.1).
func Ideal(appThreads int, totalPages uint64, localPages int) Config {
	return Config{
		Name:          "Ideal",
		AppThreads:    appThreads,
		TotalPages:    totalPages,
		LocalMemPages: localPages,
		Ideal:         true,
		Accounting:    AcctGlobalLRU,
		Allocator:     AllocGlobalLock,
		Swap:          SwapDirectMap,
		PTLock:        pgtable.LockPerPTE,
		Stack:         nic.StackLibOS,
	}
}

// Preset returns a named preset configuration. Recognized names are
// "ideal", "hermit", "dilos", "magelib", and "magelnx".
func Preset(name string, appThreads int, totalPages uint64, localPages int) (Config, error) {
	switch name {
	case "ideal", "Ideal":
		return Ideal(appThreads, totalPages, localPages), nil
	case "hermit", "Hermit":
		return Hermit(appThreads, totalPages, localPages), nil
	case "dilos", "DiLOS":
		return DiLOS(appThreads, totalPages, localPages), nil
	case "magelib", "MageLib":
		return MageLib(appThreads, totalPages, localPages), nil
	case "magelnx", "MageLnx":
		return MageLnx(appThreads, totalPages, localPages), nil
	}
	return Config{}, fmt.Errorf("core: unknown preset %q", name)
}

// LocalPages is the local DRAM quota that holds localFrac of a working
// set of totalPages, and never less than 64 pages. A fraction of 1 or
// more is an all-local run: the WSS plus headroom for the free-frame
// watermarks, so steady state never evicts.
func LocalPages(totalPages uint64, localFrac float64) int {
	if localFrac >= 1 {
		return int(totalPages) + int(totalPages)/6 + 4096
	}
	return max(int(float64(totalPages)*localFrac), 64)
}

// Presets returns all five system configurations in the order the paper's
// figures list them.
func Presets(appThreads int, totalPages uint64, localPages int) []Config {
	return []Config{
		Ideal(appThreads, totalPages, localPages),
		Hermit(appThreads, totalPages, localPages),
		DiLOS(appThreads, totalPages, localPages),
		MageLib(appThreads, totalPages, localPages),
		MageLnx(appThreads, totalPages, localPages),
	}
}
