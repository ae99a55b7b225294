// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each Fig*/Table* function assembles the systems and
// workloads, runs them on the simulation substrate, and returns printable
// tables whose rows correspond to the points in the original plot.
//
// Absolute numbers come from a scaled-down simulated testbed; the claims
// to check are the shapes: who wins, by roughly what factor, and where
// the crossovers fall. See EXPERIMENTS.md for the paper-vs-measured
// record.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"mage/internal/core"
	"mage/internal/parexp"
	"mage/internal/sim"
	"mage/internal/workload"
)

// Table is one printable result table (usually one figure panel).
type Table struct {
	ID     string // e.g. "fig1"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteCSV renders the table as RFC-4180 CSV (for plotting scripts).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Print renders the table with aligned columns. Write errors are
// discarded: the only callers print to stdout, where a failure has no
// useful recovery.
func (t *Table) Print(w io.Writer) {
	_, _ = fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		_, _ = fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		_, _ = fmt.Fprintf(w, "note: %s\n", n)
	}
	_, _ = fmt.Fprintln(w)
}

// Scale bundles workload sizes and sweep granularity so the same
// experiment code runs at test speed or at CLI depth.
type Scale struct {
	Threads           int
	RegressionThreads int
	Offloads          []float64 // fraction of WSS that is remote
	ThreadSweep       []int

	GapBS workload.GapBSParams
	XS    workload.XSBenchParams
	Seq   workload.SeqScanParams
	Gups  workload.GUPSParams
	Metis workload.MetisParams
	MC    workload.MemcachedParams

	// Colo sizes the multi-tenant co-location sweep.
	Colo ColocateParams

	// Rack sizes the rack-scale cross-node eviction sweeps (extrack).
	Rack RackScale

	// MicroPagesPerThread sizes the sequential-read microbenchmark.
	MicroPagesPerThread int
	// MCLoads is the offered-load sweep for Fig 13b (ops/s).
	MCLoads []float64
	// MCFixedLoad is Fig 13a's fixed load (ops/s).
	MCFixedLoad float64
	// MCDuration is the open-loop run length.
	MCDuration sim.Time
	// Seed is the master seed.
	Seed int64
	// Workers caps the host goroutines regenerating a figure's cells
	// (<= 0 means GOMAXPROCS; 1 forces the sequential reference path).
	// Output is byte-identical at any setting: each cell runs on its own
	// engine, seeded from the cell's identity, and results are collected
	// in cell order. See internal/parexp.
	Workers int
}

// Quick returns a scale suitable for tests and `go test -bench`: every
// experiment completes in seconds.
func Quick() Scale {
	return Scale{
		Threads:           48,
		RegressionThreads: 4,
		Offloads:          []float64{0.1, 0.3, 0.5, 0.9},
		ThreadSweep:       []int{4, 16, 32, 48},

		GapBS: workload.GapBSParams{Scale: 18, EdgeFactor: 32, Iterations: 2, BytesPerVertex: 16, Seed: 42},
		XS: workload.XSBenchParams{Gridpoints: 1 << 17, Nuclides: 64,
			LookupsPerThread: 2000, NuclidesPerLookup: 12},
		Seq: workload.SeqScanParams{Pages: 20 << 10, Iterations: 2, ComputePerPage: 4000},
		Gups: workload.GUPSParams{Pages: 16 << 10, UpdatesPerThread: 4000, PhaseSplit: 0.5,
			HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250},
		Metis: workload.MetisParams{InputPages: 10 << 10, IntermediatePages: 6 << 10,
			OutputPages: 1 << 10, EmitsPerInputPage: 2, MapCompute: 900, ReduceCompute: 700},
		MC: workload.MemcachedParams{Keys: 1 << 17, ValueBytes: 256, Theta: 0.99,
			GetFraction: 0.998, ComputePerOp: 1500},

		Colo: ColocateParams{
			Tenants:          []int{2, 4, 8},
			Ratios:           []float64{0.5, 0.75},
			ThreadsPerTenant: 6,
			Zipf: workload.ZipfParams{Pages: 6 << 10, AccessesPerThread: 2500,
				Theta: 0.99, WriteFraction: 0.3, ComputePerAccess: 1500},
			Seq: workload.SeqScanParams{Pages: 6 << 10, Iterations: 1, ComputePerPage: 1500},
			Gups: workload.GUPSParams{Pages: 6 << 10, UpdatesPerThread: 2500, PhaseSplit: 0.5,
				HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250},
		},

		Rack: RackScale{NodeCounts: []int{4, 8, 16}, DegradeNodes: 8, AccessesPerThread: 2000},

		MicroPagesPerThread: 1000,
		MCLoads:             []float64{0.2e6, 0.5e6, 1e6, 1.5e6},
		MCFixedLoad:         0.8e6,
		MCDuration:          25 * sim.Millisecond,
		Seed:                1,
	}
}

// Full returns the CLI scale: larger working sets and denser sweeps
// (minutes, not seconds).
func Full() Scale {
	s := Quick()
	s.Offloads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	s.ThreadSweep = []int{1, 4, 8, 16, 24, 28, 32, 40, 48}
	s.GapBS = workload.GapBSParams{Scale: 19, EdgeFactor: 32, Iterations: 2, BytesPerVertex: 16, Seed: 42}
	s.XS = workload.XSBenchParams{Gridpoints: 1 << 18, Nuclides: 64,
		LookupsPerThread: 4000, NuclidesPerLookup: 12}
	s.Seq = workload.SeqScanParams{Pages: 64 << 10, Iterations: 2, ComputePerPage: 4000}
	s.Gups = workload.GUPSParams{Pages: 48 << 10, UpdatesPerThread: 12000, PhaseSplit: 0.5,
		HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250}
	s.Metis = workload.MetisParams{InputPages: 24 << 10, IntermediatePages: 14 << 10,
		OutputPages: 2 << 10, EmitsPerInputPage: 2, MapCompute: 900, ReduceCompute: 700}
	s.MC = workload.MemcachedParams{Keys: 1 << 19, ValueBytes: 256, Theta: 0.99,
		GetFraction: 0.998, ComputePerOp: 1500}
	s.Colo = ColocateParams{
		Tenants:          []int{2, 3, 4, 6, 8},
		Ratios:           []float64{0.4, 0.6, 0.8},
		ThreadsPerTenant: 6,
		Zipf: workload.ZipfParams{Pages: 16 << 10, AccessesPerThread: 6000,
			Theta: 0.99, WriteFraction: 0.3, ComputePerAccess: 1500},
		Seq: workload.SeqScanParams{Pages: 16 << 10, Iterations: 1, ComputePerPage: 1500},
		Gups: workload.GUPSParams{Pages: 16 << 10, UpdatesPerThread: 6000, PhaseSplit: 0.5,
			HotFrac: 0.8, Theta: 0.99, ComputePerUpdate: 250},
	}
	s.Rack = RackScale{NodeCounts: []int{4, 8, 12, 16}, DegradeNodes: 16, AccessesPerThread: 8000}
	s.MicroPagesPerThread = 5000
	s.MCLoads = []float64{0.2e6, 0.4e6, 0.8e6, 1.2e6, 1.6e6, 2.0e6}
	s.MCDuration = 60 * sim.Millisecond
	return s
}

// systemNames is the figure ordering of the compared systems.
var systemNames = []string{"Ideal", "Hermit", "DiLOS", "MageLib", "MageLnx"}

// presetCfg is the named preset over total pages with local frames of
// local DRAM, mutate applied.
func presetCfg(name string, threads int, total uint64, local int, mutate func(*core.Config)) core.Config {
	cfg, err := core.Preset(name, threads, total, local)
	if err != nil {
		panic(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// mustNode builds a single-tenant node from cfg and returns it with its
// tenant.
func mustNode(cfg core.Config) (*core.Node, *core.Tenant) {
	n, err := core.NewNode(cfg, nil)
	if err != nil {
		panic(err)
	}
	return n, n.Tenants()[0]
}

// runStreams runs set, a stream set of w with one stream per thread, on a
// preset with localFrac of w's pages in local memory, sized by
// core.LocalPages (see runCfg).
func runStreams(name string, w workload.Workload, set []core.AccessStream, localFrac float64, mutate func(*core.Config)) core.RunResult {
	total := w.NumPages()
	return runCfg(presetCfg(name, len(set), total, core.LocalPages(total, localFrac), mutate), w, set)
}

// zeroFiller is a workload that declares the page ranges it allocates at
// run time (Metis's intermediate and output regions): their first faults
// are anonymous zero-fills with no remote content.
type zeroFiller interface {
	ZeroFillRanges() [][2]uint64
}

// runCfg runs set, a stream set of w, on a fresh node built from cfg,
// warm-started like the paper's runs. A zeroFiller has its ranges marked
// and the front of its address space (Metis's input) made resident; any
// other workload's warm start spreads the cold gap evenly.
func runCfg(cfg core.Config, w workload.Workload, set []core.AccessStream) core.RunResult {
	n, tn := mustNode(cfg)
	if z, ok := w.(zeroFiller); ok {
		for _, r := range z.ZeroFillRanges() {
			tn.MarkZeroFill(r[0], r[1])
		}
		tn.PrepopulateFront(int(w.NumPages()))
	} else {
		tn.Prepopulate(int(w.NumPages()))
	}
	return n.Run(set)
}

// runCells evaluates a figure's n grid cells — each a self-contained
// simulation on a private engine — and returns the results in cell
// order, fanning out across sc.Workers host goroutines. fn must derive
// any randomness from the cell index and scale parameters only, never
// from worker identity, so the rendered tables are byte-identical to a
// sequential run.
func runCells[T any](sc Scale, n int, fn func(i int) T) []T {
	return parexp.Map(n, sc.Workers, fn)
}

func fmtF(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fmtF1(v float64) string { return fmt.Sprintf("%.1f", v) }
func fmtPct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
func fmtUs(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
