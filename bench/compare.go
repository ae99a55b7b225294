package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare: the tool every later claim is made with. It reads two -out
// files (sets of runs of two commits, or of one commit twice) and
// prints one row per workload x end-to-end metric.

type comparison struct {
	medA, medB float64
	spread     float64 // the wider interquartile range of the two sets, as a share of its median
	verdict    string
}

// compareMetric judges set b against base set a under the metric's
// bound. A set of one run has no spread to show, so its verdict rests on
// the medians alone.
func compareMetric(s metricSpec, a, b []float64) comparison {
	bound := s.bound
	c := comparison{medA: median(a), medB: median(b)}
	for _, xs := range [][]float64{a, b} {
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		if q2 != 0 {
			c.spread = max(c.spread, (q3-q1)/q2)
		}
	}
	worseBy := (c.medB - c.medA) / c.medA
	if s.better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case c.medA == 0:
		c.verdict = "unresolved"
	case c.spread > bound && s.name != "setup_s":
		// The runs of one commit disagree by more than the bound: the
		// metric cannot show a change of that size either way. Set-up is
		// exempt, as it is from the driver's spread check: it is timed
		// once per run and judged on its median alone.
		c.verdict = "unresolved"
	case worseBy > bound:
		c.verdict = "worse"
	case worseBy < -bound:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}

func loadOut(path string) (outFile, error) {
	var f outFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// untraced groups a file's untraced runs by workload: end-to-end
// metrics always come from the untraced run.
func untraced(f outFile) map[string][]*result {
	m := make(map[string][]*result)
	for _, r := range f.Runs {
		if !r.Traced {
			m[r.Workload] = append(m[r.Workload], r)
		}
	}
	return m
}

func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failedOps(runs []*result) (failed uint64, incorrect int) {
	for _, r := range runs {
		failed += r.Failed
		if !r.Correct {
			incorrect++
		}
	}
	return failed, incorrect
}

// loadDiff names the load-model settings in which two sets differ. Runs
// of different length, client count or window are different
// experiments, and no verdict between them means anything.
func loadDiff(a, b stamp) []string {
	var out []string
	for _, f := range []struct {
		name string
		a, b int
	}{
		{"seconds", a.Seconds, b.Seconds},
		{"clients", a.Clients, b.Clients},
		{"kv_window", a.KVWindow, b.KVWindow},
		{"slice_ms", a.SliceMs, b.SliceMs},
		{"ref_ms", a.RefMs, b.RefMs},
	} {
		if f.a != f.b {
			out = append(out, fmt.Sprintf("%s %d vs %d", f.name, f.a, f.b))
		}
	}
	return out
}

// wanted is how many untraced runs of a workload a set should hold: what
// its stamp says was asked for. A run that crashed leaves no result, so
// a set that holds fewer is not a smaller sample but a failed one.
func wanted(f outFile, workload string) int {
	for _, name := range f.Stamp.Workloads {
		if name == workload {
			return f.Stamp.Runs
		}
	}
	return 0
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := loadOut(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fb, err := loadOut(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if diff := loadDiff(fa.Stamp, fb.Stamp); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "bench: the two sets were not run under the same load model: %v\n", diff)
		return 2
	}
	a, b := untraced(fa), untraced(fb)
	fmt.Fprintf(w, "base %s: git=%s nproc=%d seed=%d\n", pathA, fa.Stamp.GitRev, fa.Stamp.Nproc, fa.Stamp.Seed)
	fmt.Fprintf(w, "new  %s: git=%s nproc=%d seed=%d\n", pathB, fb.Stamp.GitRev, fb.Stamp.Nproc, fb.Stamp.Seed)
	fmt.Fprintf(w, "%-18s %-12s %5s %14s %14s %9s %7s %6s  %s\n",
		"workload", "metric", "runs", "base", "new", "new/base", "spread", "bound", "verdict")
	worse := 0
	for _, ws := range workloadSpecs {
		ra, rb := a[ws.name], b[ws.name]
		wantA, wantB := wanted(fa, ws.name), wanted(fb, ws.name)
		if len(ra)+len(rb)+wantA+wantB == 0 {
			continue // in neither set, and neither asked for it
		}
		if len(ra) == 0 || len(rb) == 0 || len(ra) < wantA || len(rb) < wantB {
			// A workload whose runs died must not compare as "same" by
			// dropping out of the table.
			worse++
			fmt.Fprintf(w, "%-18s %-12s %2d/%-2d  base holds %d of %d runs asked for, new %d of %d  unresolved\n",
				ws.name, "(runs)", len(ra), len(rb), len(ra), max(wantA, len(ra)), len(rb), max(wantB, len(rb)))
			continue
		}
		for _, s := range endToEnd {
			c := compareMetric(s, values(ra, s.name), values(rb, s.name))
			if c.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-12s %2d/%-2d %14.4f %14.4f %9.4f %6.1f%% %5.0f%%  %s\n",
				ws.name, s.name, len(ra), len(rb), c.medA, c.medB, c.medB/c.medA, c.spread*100, s.bound*100, c.verdict)
		}
		// Any failed op, or any run a robustness counter voided, is a
		// regression whatever the base did: the bound is "any rise".
		failA, badA := failedOps(ra)
		failB, badB := failedOps(rb)
		v := "same"
		if failB > failA || badB > badA {
			v = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-18s %-12s %2d/%-2d %14d %14d %9s %7s %6s  %s\n",
			ws.name, "failed_ops", len(ra), len(rb), failA, failB, "", "", "any", v)
	}
	if worse > 0 {
		return 1
	}
	return 0
}
