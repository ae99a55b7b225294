// Package mage is a simulation-grade reproduction of "Scalable Far
// Memory: Balancing Faults and Evictions" (SOSP 2025): a page-based
// far-memory system built from three design principles — always-
// asynchronous decoupling of the fault-in and eviction paths, cross-batch
// pipelined eviction, and contention-avoiding data structures — together
// with the systems it is compared against (Hermit, DiLOS, and an
// analytical ideal baseline).
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's testbed (dual-socket 56-core machine, 200 Gbps RDMA), so every
// experiment is reproducible bit-for-bit. See DESIGN.md for the
// substitution rationale and EXPERIMENTS.md for paper-vs-measured
// results.
//
// # Quick start
//
//	cfg := mage.MageLib(48, 1<<16, 1<<15) // threads, WSS pages, local frames
//	node := mage.MustNewSystem(cfg)
//	w := mage.NewGapBS(mage.DefaultGapBSParams())
//	res := node.Run(w.Streams(48, 1))
//	fmt.Println(res.OpsPerSec(), res.Metrics)
//
// Or regenerate a paper figure:
//
//	mage.RunExperiment(os.Stdout, "fig1", mage.QuickScale())
package mage

import (
	"io"

	"mage/internal/core"
	"mage/internal/experiments"
	"mage/internal/memnode"
	"mage/internal/sim"
	"mage/internal/workload"
)

// Core types, re-exported from the implementation packages.
type (
	// Config describes one far-memory system instance (machine shape,
	// path policies, data-structure designs).
	Config = core.Config
	// Node is the substrate shared by co-located tenants: engine, NIC,
	// frame pool, global page accounting, and the eviction threads.
	Node = core.Node
	// Tenant is one application's slice of a Node: address space, core
	// affinity, and per-tenant metrics.
	Tenant = core.Tenant
	// TenantSpec describes one application co-located on a Node.
	TenantSpec = core.TenantSpec
	// Metrics is a measurement snapshot.
	Metrics = core.Metrics
	// RunResult is a completed workload execution.
	RunResult = core.RunResult
	// RunOptions tunes sampling.
	RunOptions = core.RunOptions
	// Access is one page reference in an access stream.
	Access = core.Access
	// AccessStream generates a thread's accesses lazily.
	AccessStream = core.AccessStream
	// FuncStream adapts a closure to AccessStream.
	FuncStream = core.FuncStream
	// Thread drives custom request loops (see the memcached example).
	Thread = core.Thread
	// Time is virtual time in nanoseconds.
	Time = sim.Time
)

// Workload types.
type (
	// Workload produces per-thread access streams.
	Workload = workload.Workload
	// GapBSParams sizes the PageRank workload.
	GapBSParams = workload.GapBSParams
	// XSBenchParams sizes the Monte Carlo lookup workload.
	XSBenchParams = workload.XSBenchParams
	// SeqScanParams sizes the sequential scan.
	SeqScanParams = workload.SeqScanParams
	// ZipfParams sizes the closed-loop skewed-random workload.
	ZipfParams = workload.ZipfParams
	// GUPSParams sizes the phase-changing update workload.
	GUPSParams = workload.GUPSParams
	// MetisParams sizes the MapReduce workload.
	MetisParams = workload.MetisParams
	// MemcachedParams sizes the KV workload.
	MemcachedParams = workload.MemcachedParams
	// LatencyResult is an open-loop latency measurement.
	LatencyResult = workload.LatencyResult
	// Scale bundles experiment sizes.
	Scale = experiments.Scale
)

// MustNewSystem builds a single-tenant node from cfg, panicking on an
// invalid config. Run it with Node.Run; its one tenant is Tenants()[0].
func MustNewSystem(cfg Config) *Node {
	n, err := core.NewNode(cfg, nil)
	if err != nil {
		panic(err)
	}
	return n
}

// Node constructors and configs.
var (
	// NewNode builds a node: cfg describes the shared substrate, specs
	// the co-located applications (none: one tenant shaped by cfg). Run
	// a single tenant with Node.Run, several with Node.RunTenants, one
	// stream set per tenant.
	NewNode = core.NewNode
	// Preset returns a named system config: "ideal", "hermit", "dilos",
	// "magelib", "magelnx".
	Preset = core.Preset
	// Presets returns all five configs in figure order.
	Presets = core.Presets
	// LocalPages is the local DRAM quota that holds a fraction of a
	// working set (at least 64 pages); a fraction of 1 or more runs
	// all-local and never evicts.
	LocalPages = core.LocalPages
	// Ideal, Hermit, DiLOS, MageLib and MageLnx build the individual
	// preset configurations.
	Ideal   = core.Ideal
	Hermit  = core.Hermit
	DiLOS   = core.DiLOS
	MageLib = core.MageLib
	MageLnx = core.MageLnx
)

// Workload constructors.
var (
	NewGapBS     = workload.NewGapBS
	NewXSBench   = workload.NewXSBench
	NewSeqScan   = workload.NewSeqScan
	NewZipf      = workload.NewZipf
	NewGUPS      = workload.NewGUPS
	NewMetis     = workload.NewMetis
	NewMemcached = workload.NewMemcached

	DefaultGapBSParams     = workload.DefaultGapBS
	DefaultXSBenchParams   = workload.DefaultXSBench
	DefaultSeqScanParams   = workload.DefaultSeqScan
	DefaultGUPSParams      = workload.DefaultGUPS
	DefaultMetisParams     = workload.DefaultMetis
	DefaultMemcachedParams = workload.DefaultMemcached
)

// Experiment scales.
var (
	// QuickScale completes every experiment in seconds (tests, benches).
	QuickScale = experiments.Quick
	// FullScale is the CLI's larger sweep.
	FullScale = experiments.Full
)

// Experiments lists the available experiment IDs (fig1..fig18, table1,
// table2).
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures and
// prints it to w.
func RunExperiment(w io.Writer, name string, sc Scale) error {
	r, err := experiments.Lookup(name)
	if err != nil {
		return err
	}
	for _, t := range r(sc) {
		t.Print(w)
	}
	return nil
}

// Far-memory node over a real network (the §5.2 memory-node daemon and
// its client, TCP substituting for RDMA).
type (
	// MemoryNode is the far-memory daemon.
	MemoryNode = memnode.Server
	// MemoryNodeClient talks to a MemoryNode.
	MemoryNodeClient = memnode.Client
	// MemoryNodeStats is the daemon's STAT response.
	MemoryNodeStats = memnode.Stats
)

var (
	// NewMemoryNode starts a daemon on addr serving capacity bytes.
	NewMemoryNode = memnode.NewServer
	// DialMemoryNode connects to a daemon.
	DialMemoryNode = memnode.Dial
)

// Durations re-exported for building streams.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)
