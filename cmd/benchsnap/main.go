// Command benchsnap checks `go test -bench` text output against pinned
// metrics, so that a bench step fails loudly when a pinned number
// regresses or silently disappears.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchsnap -require 'BenchmarkEngineDispatch:events/s>=2700000'
//
// -require names the metrics that must be present (comma-separated
// Bench:metric pairs, e.g.
// "BenchmarkMemnodePipeline:pages/s,BenchmarkEngineDispatch:events/s");
// if a named benchmark or metric is missing the exit code is 1. A pair
// may carry a bound — "BenchmarkEngineDispatch:events/s>=2700000"
// (throughput floor) or "BenchmarkMemnodePipeline:ns/op<=20000"
// (latency ceiling) — in which case the measured value must satisfy it.
// A stream with no benchmark line, or with a FAIL line, exits 1 too.
//
// Every benchmark line is read with its iteration count, ns/op, and any
// extra metrics the benchmark reported via b.ReportMetric (e.g. the
// engine's events/s — simulated events dispatched per host second — the
// fault-tolerance bench's robustness counters (retries/op, timeouts/op,
// giveups/op, degraded-ms), or allocation counters from -benchmem).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string
	Pkg        string
	Iterations int64
	NsPerOp    float64
	Metrics    map[string]float64
}

// Parsed is a whole `go test -bench` stream: its results, and the FAIL
// lines among its output.
type Parsed struct {
	Results   []Result
	FailLines []string
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

// parse consumes a `go test -bench` stream.
func parse(in io.Reader) (Parsed, error) {
	var snap Parsed
	var pkg string // most recent "pkg:" header; stamps following results
	// pending holds a benchmark name whose numeric result has not been
	// seen yet. A benchmark that prints to stdout mid-run splits its
	// result: the framework flushes the name token first, the print
	// lands on the same line, and the "N  12.3 ns/op ..." numbers
	// arrive on a later line with no Benchmark prefix. Stitching the
	// two back together keeps those results (and their -require pins)
	// instead of silently dropping them.
	var pending string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL"):
			snap.FailLines = append(snap.FailLines, line)
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
				// remember the name.
				pending = fields[0]
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
// stream. Benchmark names are matched by prefix because bench lines
// carry a -N GOMAXPROCS suffix ("BenchmarkMemnodePipeline-8"); the
// metric "ns/op" is always present on a parsed line, anything else must
// appear in the result's extra-metrics map. A pair suffixed with
// ">=floor" or "<=ceiling" additionally bounds the measured value;
// every matching result must satisfy the bound.
func checkRequired(snap Parsed, require string, errw io.Writer) int {
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

func run(in io.Reader, errw io.Writer, require string) int {
	snap, err := parse(in)
	if err != nil {
		fmt.Fprintln(errw, "benchsnap:", err)
		return 1
	}
	if len(snap.Results) == 0 {
		fmt.Fprintln(errw, "benchsnap: no benchmark lines on stdin")
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
	os.Exit(run(os.Stdin, os.Stderr, *require))
}
