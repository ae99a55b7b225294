package core

import (
	"testing"

	"mage/internal/sim"
)

// runShape executes a 48-thread random workload at the given offload
// fraction and returns ops/s.
func runShape(t *testing.T, name string, offload float64, compute sim.Time) (float64, Metrics) {
	t.Helper()
	const (
		wss     = 24576
		threads = 48
		accs    = 1500
	)
	local := int(float64(wss) * (1 - offload))
	cfg, err := Preset(name, threads, wss, local)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := mustNode(t, cfg)
	streams := make([]AccessStream, threads)
	for i := range streams {
		streams[i] = randStream(int64(1000+i), accs, wss, compute, 0.3)
	}
	res := node.Run(streams)
	return res.OpsPerSec(), res.Metrics
}

// TestScalabilityOrdering48Threads reproduces the paper's headline shape
// (Figs 1 and 9): at 48 threads with significant offloading, the ideal
// baseline leads, both MAGE variants beat DiLOS, and DiLOS beats Hermit.
func TestScalabilityOrdering48Threads(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is slow")
	}
	ops := map[string]float64{}
	for _, name := range []string{"ideal", "hermit", "dilos", "magelib", "magelnx"} {
		o, m := runShape(t, name, 0.5, 300)
		ops[name] = o
		t.Logf("%-8s %8.2f Mops/s  %v", name, o/1e6, m)
	}
	if !(ops["ideal"] >= ops["magelib"]) {
		t.Errorf("ideal (%.2fM) should lead MageLib (%.2fM)", ops["ideal"]/1e6, ops["magelib"]/1e6)
	}
	if !(ops["magelib"] > ops["dilos"]) {
		t.Errorf("MageLib (%.2fM) should beat DiLOS (%.2fM)", ops["magelib"]/1e6, ops["dilos"]/1e6)
	}
	if !(ops["magelnx"] > ops["dilos"]) {
		t.Errorf("MageLnx (%.2fM) should beat DiLOS (%.2fM)", ops["magelnx"]/1e6, ops["dilos"]/1e6)
	}
	if !(ops["dilos"] > ops["hermit"]) {
		t.Errorf("DiLOS (%.2fM) should beat Hermit (%.2fM)", ops["dilos"]/1e6, ops["hermit"]/1e6)
	}
}
