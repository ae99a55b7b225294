// Command benchsnap converts `go test -bench` text output into a JSON
// snapshot so benchmark history can be diffed across commits.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchsnap > BENCH_2026-01-02.json
//
// -require pins metrics that must be present in the snapshot
// (comma-separated Bench:metric pairs, e.g.
// "BenchmarkMemnodePipeline:pages/s,BenchmarkEngineDispatch:events/s");
// if a named benchmark or metric is missing the exit code is 1, so a
// CI bench step fails loudly when a pinned number silently disappears
// instead of producing a snapshot that no longer tracks it. A pair may
// carry a bound — "BenchmarkEngineDispatch:events/s>=2700000"
// (throughput floor) or "BenchmarkMemnodePipeline:ns/op<=20000"
// (latency ceiling) — in which case the measured value must satisfy it,
// turning the snapshot step into a hard perf regression gate.
//
// Every benchmark line is captured with its iteration count, ns/op, and
// any extra metrics the benchmark reported via b.ReportMetric (e.g. the
// engine's events/s — simulated events dispatched per host second — the
// fault-tolerance bench's robustness counters (retries/op, timeouts/op,
// giveups/op, degraded-ms), or allocation counters from -benchmem).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// ClusterTopology records the shape of a clustered-memnode benchmark:
// the cluster benches print one "cluster-topology: bench=... shards=N
// replicas=R transport=..." line per run so a snapshot says what
// topology its failover numbers were measured against.
type ClusterTopology struct {
	Bench     string `json:"bench"`
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	Transport string `json:"transport,omitempty"`
}

// Snapshot is the full parsed run.
type Snapshot struct {
	GoOS      string            `json:"goos,omitempty"`
	GoArch    string            `json:"goarch,omitempty"`
	CPU       string            `json:"cpu,omitempty"`
	Results   []Result          `json:"results"`
	Clusters  []ClusterTopology `json:"clusters,omitempty"`
	FailLines []string          `json:"fail_lines,omitempty"`
}

// parseTopology parses one "cluster-topology: k=v ..." line.
func parseTopology(line string) (ClusterTopology, bool) {
	var ct ClusterTopology
	for _, kv := range strings.Fields(line) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "bench":
			ct.Bench = v
		case "shards":
			ct.Shards, _ = strconv.Atoi(v)
		case "replicas":
			ct.Replicas, _ = strconv.Atoi(v)
		case "transport":
			ct.Transport = v
		}
	}
	return ct, ct.Bench != ""
}

// parseLine parses one "BenchmarkX-8  N  12.3 ns/op  45 u/s" line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[unit] = v
	}
	return r, true
}

// addTopology dedups one parsed topology into the snapshot. A bench run
// repeats for timing refinement; one topology line per benchmark is
// enough.
func addTopology(snap *Snapshot, payload string) {
	ct, ok := parseTopology(payload)
	if !ok {
		return
	}
	for _, have := range snap.Clusters {
		if have == ct {
			return
		}
	}
	snap.Clusters = append(snap.Clusters, ct)
}

// parse consumes a `go test -bench` stream.
func parse(in io.Reader) (Snapshot, error) {
	var snap Snapshot
	var pkg string // most recent "pkg:" header; stamps following results
	// pending holds a benchmark name whose numeric result has not been
	// seen yet. A benchmark that prints to stdout mid-run (the cluster
	// benches emit a "cluster-topology: ..." line) splits its result:
	// the framework flushes the name token first, the print lands on
	// the same line, and the "N  12.3 ns/op ..." numbers arrive on a
	// later line with no Benchmark prefix. Stitching the two back
	// together keeps those results (and their -require pins) in the
	// snapshot instead of silently dropping them.
	var pending string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL"):
			snap.FailLines = append(snap.FailLines, line)
		case strings.HasPrefix(line, "cluster-topology: "):
			addTopology(&snap, strings.TrimPrefix(line, "cluster-topology: "))
		default:
			if r, ok := parseLine(line); ok {
				r.Pkg = pkg
				snap.Results = append(snap.Results, r)
				pending = ""
				continue
			}
			fields := strings.Fields(line)
			if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
				// Name-only line (result split by a mid-run print):
				// remember the name, and salvage a topology payload
				// glued onto it.
				pending = fields[0]
				if i := strings.Index(line, "cluster-topology: "); i >= 0 {
					addTopology(&snap, line[i+len("cluster-topology: "):])
				}
				continue
			}
			if pending == "" || len(fields) < 3 {
				continue
			}
			if _, err := strconv.ParseInt(fields[0], 10, 64); err != nil {
				continue
			}
			if r, ok := parseLine(pending + " " + line); ok {
				r.Pkg = pkg
				snap.Results = append(snap.Results, r)
				pending = ""
			}
		}
	}
	return snap, sc.Err()
}

// checkRequired verifies every "Bench:metric" pair against the parsed
// snapshot. Benchmark names are matched by prefix because bench lines
// carry a -N GOMAXPROCS suffix ("BenchmarkMemnodePipeline-8"); the
// metric "ns/op" is always present on a parsed line, anything else must
// appear in the result's extra-metrics map. A pair suffixed with
// ">=floor" or "<=ceiling" additionally bounds the measured value;
// every matching result must satisfy the bound.
func checkRequired(snap Snapshot, require string, errw io.Writer) int {
	missing := 0
	for _, req := range strings.Split(require, ",") {
		req = strings.TrimSpace(req)
		if req == "" {
			continue
		}
		spec, op, bound, err := splitBound(req)
		if err != nil {
			fmt.Fprintf(errw, "benchsnap: bad -require entry %q: %v\n", req, err)
			missing++
			continue
		}
		name, metric, ok := strings.Cut(spec, ":")
		if !ok {
			fmt.Fprintf(errw, "benchsnap: bad -require entry %q (want Bench:metric)\n", req)
			missing++
			continue
		}
		found := false
		for _, r := range snap.Results {
			if r.Name != name && !strings.HasPrefix(r.Name, name+"-") {
				continue
			}
			v, have := r.NsPerOp, true
			if metric != "ns/op" {
				v, have = r.Metrics[metric]
			}
			if !have {
				continue
			}
			found = true
			if op == ">=" && v < bound || op == "<=" && v > bound {
				fmt.Fprintf(errw, "benchsnap: %s %s = %v violates the pinned bound %s%v\n",
					r.Name, metric, v, op, bound)
				missing++
			}
		}
		if !found {
			fmt.Fprintf(errw, "benchsnap: required metric %q missing from bench output\n", req)
			missing++
		}
	}
	return missing
}

// splitBound strips an optional ">=value" / "<=value" suffix from a
// -require entry, returning the bare Bench:metric spec and the bound.
// op is "" when the entry is a bare presence pin.
func splitBound(req string) (spec, op string, bound float64, err error) {
	for _, o := range []string{">=", "<="} {
		i := strings.Index(req, o)
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(req[i+len(o):]), 64)
		if err != nil {
			return "", "", 0, fmt.Errorf("unparseable bound after %q", o)
		}
		return strings.TrimSpace(req[:i]), o, v, nil
	}
	return req, "", 0, nil
}

func run(in io.Reader, out, errw io.Writer, require string) int {
	snap, err := parse(in)
	if err != nil {
		fmt.Fprintln(errw, "benchsnap:", err)
		return 1
	}
	if len(snap.Results) == 0 {
		fmt.Fprintln(errw, "benchsnap: no benchmark lines on stdin")
		return 1
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(errw, "benchsnap:", err)
		return 1
	}
	if len(snap.FailLines) > 0 {
		fmt.Fprintf(errw, "benchsnap: %d FAIL line(s) in bench output\n", len(snap.FailLines))
		return 1
	}
	if checkRequired(snap, require, errw) > 0 {
		return 1
	}
	return 0
}

func main() {
	require := flag.String("require", "",
		"comma-separated Bench:metric pairs that must be present, optionally bounded"+
			" (Bench:metric>=floor or Bench:metric<=ceiling); exit 1 if missing or violated")
	flag.Parse()
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, *require))
}
