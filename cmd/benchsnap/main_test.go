package main

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mage/internal/sim
cpu: Intel(R) Xeon(R)
BenchmarkEngineDispatch-8   	 3206942	       379.5 ns/op	   2635072 events/s
BenchmarkEngineDispatchCancel-8 	 1650808	       727.4 ns/op
ok  	mage/internal/sim	3.456s
`

func TestParseSample(t *testing.T) {
	snap, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Results[0].Pkg != "mage/internal/sim" {
		t.Errorf("result pkg = %q, want mage/internal/sim", snap.Results[0].Pkg)
	}
	if len(snap.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != "BenchmarkEngineDispatch-8" || r.Iterations != 3206942 || r.NsPerOp != 379.5 {
		t.Errorf("result 0 = %+v", r)
	}
	if r.Metrics["events/s"] != 2635072 {
		t.Errorf("events/s metric = %v, want 2635072", r.Metrics["events/s"])
	}
	if snap.Results[1].Metrics != nil {
		t.Errorf("result 1 has unexpected metrics: %v", snap.Results[1].Metrics)
	}
}

// TestParseRobustnessMetrics pins the units the fault-tolerance bench
// reports (retries/op, timeouts/op, giveups/op, degraded-ms): they must
// land in the metrics map so -require can pin robustness alongside
// performance.
func TestParseRobustnessMetrics(t *testing.T) {
	const line = `pkg: mage
BenchmarkFaultToleranceMageLib-8   	    2048	     91540 ns/op	       210.0 degraded-ms	         0.0150 giveups/op	         0.0890 retries/op	         0.0420 timeouts/op
`
	snap, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(snap.Results))
	}
	m := snap.Results[0].Metrics
	want := map[string]float64{
		"retries/op":  0.0890,
		"timeouts/op": 0.0420,
		"giveups/op":  0.0150,
		"degraded-ms": 210.0,
	}
	for unit, v := range want {
		if m[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, m[unit], v)
		}
	}
}

// TestParseColocateMetrics pins the units the multi-tenant co-location
// bench reports (faults/op, evicted/op across the whole node): they must
// land in the metrics map so -require can pin cross-tenant isolation
// like any other number.
func TestParseColocateMetrics(t *testing.T) {
	const line = `pkg: mage
BenchmarkColocateNode-8   	    4096	     52210 ns/op	         0.4100 evicted/op	         0.3800 faults/op
`
	snap, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(snap.Results))
	}
	m := snap.Results[0].Metrics
	want := map[string]float64{
		"faults/op":  0.3800,
		"evicted/op": 0.4100,
	}
	for unit, v := range want {
		if m[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, m[unit], v)
		}
	}
}

// TestRunExitCodes: a stream of benchmark lines exits 0; one with no
// benchmark line, or with a FAIL line, exits 1.
func TestRunExitCodes(t *testing.T) {
	var errw bytes.Buffer
	if code := run(strings.NewReader(sample), &errw, ""); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, &errw)
	}

	errw.Reset()
	if code := run(strings.NewReader("no benchmarks here\n"), &errw, ""); code != 1 {
		t.Errorf("run on empty input = %d, want 1", code)
	}

	errw.Reset()
	failed := sample + "--- FAIL: TestX\nFAIL\n"
	if code := run(strings.NewReader(failed), &errw, ""); code != 1 {
		t.Errorf("run on failing bench output = %d, want 1", code)
	}
}

// TestRequiredMetrics pins the -require contract: named benchmarks are
// matched despite the -N cpu suffix, a present metric passes, and a
// missing benchmark, missing metric, or malformed pair all exit 1 with
// a diagnostic on stderr.
func TestRequiredMetrics(t *testing.T) {
	const pipeline = `pkg: mage/internal/memnode
BenchmarkServerRoundtrip-8   	   90000	     16500 ns/op	 496.48 MB/s	       2 allocs/op
BenchmarkMemnodePipeline-8   	  500000	      6500 ns/op	 630.15 MB/s	    215000 pages/s
`
	cases := []struct {
		require string
		code    int
	}{
		{"", 0},
		{"BenchmarkMemnodePipeline:pages/s", 0},
		{"BenchmarkMemnodePipeline:pages/s,BenchmarkServerRoundtrip:allocs/op", 0},
		{"BenchmarkMemnodePipeline:ns/op", 0},
		{" BenchmarkMemnodePipeline:pages/s , ", 0}, // whitespace and empties tolerated
		{"BenchmarkMemnodePipeline:p99-us", 1},      // metric not reported
		{"BenchmarkVanished:pages/s", 1},            // benchmark not present
		{"BenchmarkMemnode:pages/s", 1},             // prefix must stop at the -N suffix
		{"not-a-pair", 1},                           // malformed entry
	}
	for _, tc := range cases {
		var errw bytes.Buffer
		if code := run(strings.NewReader(pipeline), &errw, tc.require); code != tc.code {
			t.Errorf("run(-require %q) = %d, want %d; stderr: %s", tc.require, code, tc.code, &errw)
		}
		if tc.code == 1 && errw.Len() == 0 {
			t.Errorf("run(-require %q) failed silently", tc.require)
		}
	}
}

// TestRequiredBounds pins the floor/ceiling extension of -require:
// "Bench:metric>=floor" fails when the measured value is below the
// floor, "Bench:metric<=ceiling" fails above it, satisfied bounds pass,
// and a malformed bound is diagnosed rather than silently treated as a
// presence pin.
func TestRequiredBounds(t *testing.T) {
	const dispatch = `pkg: mage/internal/sim
BenchmarkEngineDispatch-8   	 3300000	       300.0 ns/op	   3300000 events/s
`
	cases := []struct {
		require string
		code    int
	}{
		{"BenchmarkEngineDispatch:events/s>=2700000", 0},
		{"BenchmarkEngineDispatch:events/s >= 2700000", 0}, // spaces tolerated
		{"BenchmarkEngineDispatch:events/s>=4000000", 1},   // below the floor
		{"BenchmarkEngineDispatch:ns/op<=500", 0},
		{"BenchmarkEngineDispatch:ns/op<=100", 1}, // above the ceiling
		{"BenchmarkEngineDispatch:events/s>=2.7e6", 0},
		{"BenchmarkEngineDispatch:events/s>=fast", 1}, // unparseable bound
		{"BenchmarkVanished:events/s>=1", 1},          // benchmark not present
	}
	for _, tc := range cases {
		var errw bytes.Buffer
		if code := run(strings.NewReader(dispatch), &errw, tc.require); code != tc.code {
			t.Errorf("run(-require %q) = %d, want %d; stderr: %s", tc.require, code, tc.code, &errw)
		}
		if tc.code == 1 && errw.Len() == 0 {
			t.Errorf("run(-require %q) failed silently", tc.require)
		}
	}
}

// TestParseSplitBenchLine: a benchmark that prints to stdout mid-run
// splits its result across lines — the framework flushes the name
// token, the print lands beside it, and the numbers arrive later with
// no Benchmark prefix. The parser must stitch the halves back together
// or the pinned metrics silently vanish.
func TestParseSplitBenchLine(t *testing.T) {
	const in = `goos: linux
pkg: mage/cmd/magecache
BenchmarkMagecacheZipf 	warming 4096 keys
warm
  499714	      2780 ns/op	        95.00 hit-%	    359712 ops/s	       266.0 p99-us
ok  	mage/cmd/magecache	3.1s
`
	snap, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("results = %+v, want the split line stitched into one", snap.Results)
	}
	r := snap.Results[0]
	if r.Name != "BenchmarkMagecacheZipf" || r.Iterations != 499714 || r.NsPerOp != 2780 {
		t.Fatalf("stitched result = %+v", r)
	}
	if r.Metrics["ops/s"] != 359712 || r.Metrics["p99-us"] != 266.0 {
		t.Fatalf("stitched metrics = %+v", r.Metrics)
	}
	if r.Pkg != "mage/cmd/magecache" {
		t.Fatalf("stitched pkg = %q", r.Pkg)
	}
	var errw bytes.Buffer
	if code := run(strings.NewReader(in), &errw,
		"BenchmarkMagecacheZipf:ops/s>=120000,BenchmarkMagecacheZipf:p99-us"); code != 0 {
		t.Fatalf("pinned metrics on a split line reported missing: %s", &errw)
	}
	// A stray numeric line with no pending name must not fabricate a
	// result.
	snap2, err := parse(strings.NewReader("  499714	 2780 ns/op	 10 ops/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Results) != 0 {
		t.Fatalf("orphan numeric line fabricated a result: %+v", snap2.Results)
	}
}
