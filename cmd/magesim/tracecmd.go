package main

import (
	"flag"
	"fmt"
	"os"

	"mage/internal/core"
	"mage/internal/trace"
	"mage/internal/workload"
)

var traceOut = flag.String("trace", "", "run a small Mage^LIB PageRank and write a Chrome trace (chrome://tracing) to this file")

// runTrace executes a small traced run and exports the event JSON.
func runTrace(path string) error {
	p := workload.GapBSParams{Scale: 13, EdgeFactor: 16, Iterations: 1, BytesPerVertex: 16, Seed: 7}
	w := workload.NewGapBS(p)
	cfg := core.MageLib(8, w.NumPages(), int(float64(w.NumPages())*0.6))
	n, err := core.NewNode(cfg, nil)
	if err != nil {
		return err
	}
	n.Trace = trace.New(1 << 18)
	n.Tenants()[0].Prepopulate(int(w.NumPages()))
	res := n.Run(w.Streams(8, 1))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Trace.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("traced %d events over %v (%d faults, %d evictions) -> %s\n",
		n.Trace.Len(), res.Makespan, res.Metrics.MajorFaults,
		res.Metrics.EvictedPages, path)
	fmt.Println("open chrome://tracing or https://ui.perfetto.dev and load the file")
	return nil
}
