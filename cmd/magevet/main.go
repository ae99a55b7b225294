// Command magevet is the static-analysis suite for this repository: a
// set of passes pinned to bug classes the repo has actually shipped —
// determinism leaks in the discrete-event-simulation core (DESIGN.md
// §7) and correctness hazards in the wire-protocol and host-concurrent
// code (DESIGN.md §12).
//
// The pass catalog lives in one place, the registry (registry.go), and
// the usage text, -list output, and fixture meta-test are all generated
// from it; run `magevet -list` for the passes and the shipped bug each
// one is pinned to. Audited sites are silenced with a trailing or
// preceding comment:
//
//	//magevet:ok <reason>
//
// and the oksuppress pass reports markers that no longer guard any
// finding, so the suppression inventory stays honest.
//
// Usage:
//
//	go run ./cmd/magevet ./...
//	go run ./cmd/magevet -tags magecheck ./internal/...
//	go run ./cmd/magevet -json -passes overflowcmp,lockscope ./internal/memnode
//
// Exit status: 0 clean, 1 findings, 2 load/type-check or flag errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usageText())
		fs.PrintDefaults()
	}
	tagsFlag := fs.String("tags", "", "comma-separated build tags to apply (e.g. magecheck)")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	listFlag := fs.Bool("list", false, "print the pass catalog and exit")
	passesFlag := fs.String("passes", "", "comma-separated passes to run (default: all default-on passes; 'all' for every pass)")
	skipFlag := fs.String("skip", "", "comma-separated passes to skip")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		fmt.Fprint(stdout, listText())
		return 0
	}
	passes, err := selectPasses(*passesFlag, *skipFlag)
	if err != nil {
		fmt.Fprintf(stderr, "magevet: %v\n", err)
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"./..."}
	}
	var tags []string
	if *tagsFlag != "" {
		tags = strings.Split(*tagsFlag, ",")
	}

	diags, nerrs := analyzeRoots(roots, tags, passes, stderr)
	if nerrs > 0 {
		return 2
	}

	// Print module-relative paths, which read the same in every checkout.
	cwd, _ := os.Getwd()
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].pos.Filename = rel
		}
	}

	if *jsonFlag {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "magevet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "magevet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// analyzeRoots loads every package under the given roots, runs the
// enabled passes, and returns the sorted, suppression-filtered
// diagnostics plus the number of load errors.
func analyzeRoots(roots, tags []string, passes []*pass, stderr io.Writer) ([]diagnostic, int) {
	ld, nerrs := loadRoots(roots, tags, stderr)
	if ld == nil {
		return nil, nerrs
	}
	return ld.analyze(passes, stderr), nerrs
}

// loaded is the packages under a set of roots, parsed and type-checked
// once; any number of pass sets can be run over them.
type loaded struct {
	l    *loader
	pkgs []*pkgInfo
}

// loadRoots loads every package under the given roots and counts the
// ones that failed to. It returns nil when there is nothing to analyze.
func loadRoots(roots, tags []string, stderr io.Writer) (*loaded, int) {
	dirs, err := discover(roots)
	if err != nil {
		fmt.Fprintf(stderr, "magevet: %v\n", err)
		return nil, 1
	}
	if len(dirs) == 0 {
		return nil, 0
	}
	l, err := newLoader(dirs[0], tags)
	if err != nil {
		fmt.Fprintf(stderr, "magevet: %v\n", err)
		return nil, 1
	}
	ld := &loaded{l: l}
	nerrs := 0
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			fmt.Fprintf(stderr, "magevet: %v\n", err)
			nerrs++
			continue
		}
		p := l.load(path)
		if p.err != nil {
			fmt.Fprintf(stderr, "magevet: %s: %v\n", path, p.err)
			nerrs++
			continue
		}
		ld.pkgs = append(ld.pkgs, p)
	}
	return ld, nerrs
}

// analyze runs one pass set over the loaded packages.
func (ld *loaded) analyze(passes []*pass, stderr io.Writer) []diagnostic {
	a := newAnalyzer(ld.l, passes)
	for _, p := range ld.pkgs {
		a.analyze(p)
		a.collectAllowlist(p)
	}
	diags := a.filterAllowed()
	if a.enabled[passOKSuppress.name] {
		if coversSuppressible(passes) {
			diags = append(diags, runOKSuppress(a)...)
		} else {
			fmt.Fprintln(stderr, "magevet: oksuppress skipped: staleness needs the full default suite enabled")
		}
	}
	sortDiags(diags)
	return diags
}
