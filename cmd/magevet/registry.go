package main

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// pkgScope is the package-level context a pass uses to decide whether
// it applies. rel is the module-relative import path ("" for the module
// root package).
type pkgScope struct {
	rel        string
	isInternal bool
	isDES      bool
}

// pass is one named analysis in the suite. The registry below is the
// single source of truth: usage text, -list output, pass selection, and
// the fixture meta-test are all generated from it, so the documented
// check list can never drift from the implemented one again.
type pass struct {
	name string
	doc  string // one-line summary, rendered into usage and -list
	bug  string // the shipped bug this pass is pinned to (see DESIGN.md §12)

	// defaultOn selects the pass when no -passes flag is given. A new
	// pass lands defaultOn with the tree already clean under it (see
	// DESIGN.md §12).
	defaultOn bool

	// bypassAllow marks meta passes whose diagnostics ignore
	// //magevet:ok line suppressions: they audit the suppressions
	// themselves, so a suppression must not be able to silence them.
	bypassAllow bool

	// applies reports whether the pass runs on a package; nil means
	// every package in the module, including cmd/.
	applies func(s pkgScope) bool

	// inspect is invoked for every AST node of every file of an
	// applicable package by the shared walker. nil for passes that are
	// not node-driven (badallow and oksuppress hook the suppression
	// inventory instead).
	inspect func(cx *passCtx, n ast.Node)
}

// registry lists every pass in display order. It is a slice, not a map:
// iteration order reaches user-visible output.
var registry = []*pass{
	passRangeMap,
	passWallClock,
	passGlobalRand,
	passGoroutine,
	passSyncImport,
	passFloatCmp,
	passOverflowCmp,
	passLockScope,
	passMapDrain,
	passErrDrop,
	passBadAllow,
	passOKSuppress,
}

// desPackages are the discrete-event-simulation packages (module-relative)
// that must stay single-threaded virtual-time code: no goroutines, no host
// sync primitives, no map-iteration order reaching engine state.
var desPackages = map[string]bool{
	"internal/sim":         true,
	"internal/core":        true,
	"internal/faultinject": true,
	"internal/pgtable":     true,
	"internal/tlbsim":      true,
	"internal/apic":        true,
	"internal/nic":         true,
	"internal/memnode":     true,
	"internal/swapspace":   true,
	"internal/buddy":       true,
	"internal/lru":         true,
	"internal/palloc":      true,
	"internal/prefetch":    true,
	"internal/invariant":   true,
}

// hostConcurrencyPackages are the internal packages granted a package-wide
// allowance for host concurrency (go statements, sync imports). The grant
// is a rule here rather than scattered //magevet:ok comments because the
// whole package exists to run host goroutines: parexp fans independent
// experiment cells out across workers, each on its own engine, and its
// API is the only sanctioned bridge between host parallelism and the
// simulation. Every other internal package stays single-threaded.
var hostConcurrencyPackages = map[string]bool{
	"internal/parexp": true,
	// cmd/ packages sit outside the internal/ concurrency ban by
	// construction; magecache is listed so the allowance is explicit
	// for the one binary whose whole job is host-concurrent serving.
	"cmd/magecache": true,
}

// lockscopePackages are the packages where mutexes legitimately appear —
// parexp by package-wide allowance, memnode, memcluster, upager, and
// stats via per-line audits — and where lockscope therefore polices
// what happens while a lock is held.
var lockscopePackages = map[string]bool{
	"internal/parexp":     true,
	"internal/memnode":    true,
	"internal/memcluster": true,
	"internal/stats":      true,
	"internal/upager":     true,
}

func appliesInternal(s pkgScope) bool { return s.isInternal }

// passByName resolves one pass name, with a did-you-mean error.
func passByName(name string) (*pass, error) {
	for _, p := range registry {
		if p.name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range registry {
		names = append(names, p.name)
	}
	return nil, fmt.Errorf("unknown pass %q (have %s)", name, strings.Join(names, ", "))
}

// selectPasses resolves the -passes / -skip flags into the enabled pass
// set, in registry order. An empty passesFlag means the default set.
func selectPasses(passesFlag, skipFlag string) ([]*pass, error) {
	chosen := make(map[string]bool)
	if passesFlag == "" || passesFlag == "all" {
		for _, p := range registry {
			if passesFlag == "all" || p.defaultOn {
				chosen[p.name] = true
			}
		}
	} else {
		for _, name := range strings.Split(passesFlag, ",") {
			p, err := passByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			chosen[p.name] = true
		}
	}
	if skipFlag != "" {
		for _, name := range strings.Split(skipFlag, ",") {
			p, err := passByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			delete(chosen, p.name)
		}
	}
	var out []*pass
	for _, p := range registry {
		if chosen[p.name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// coversSuppressible reports whether the enabled set includes every
// default-on suppressible pass. oksuppress only audits staleness when
// this holds: with part of the suite disabled, a suppression guarding a
// disabled check would look stale without being so.
func coversSuppressible(enabled []*pass) bool {
	on := make(map[string]bool, len(enabled))
	for _, p := range enabled {
		on[p.name] = true
	}
	for _, p := range registry {
		if p.defaultOn && !p.bypassAllow && !on[p.name] {
			return false
		}
	}
	return true
}

// usageText renders the pass catalog from the registry.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: magevet [flags] [packages]\n\npasses (default-on marked *):\n")
	for _, p := range registry {
		mark := " "
		if p.defaultOn {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s %-12s %s\n", mark, p.name, p.doc)
	}
	b.WriteString("\nAudited sites are silenced with //magevet:ok <reason> trailing the\nline, or on a standalone comment line directly above it; one marker\nguards exactly one line. oksuppress reports markers that no longer\nguard any finding.\n\nflags:\n")
	return b.String()
}

// listText renders the detailed catalog for -list, including the
// shipped bug each pass is pinned to.
func listText() string {
	var b strings.Builder
	for _, p := range registry {
		def := "off by default"
		if p.defaultOn {
			def = "default on"
		}
		fmt.Fprintf(&b, "%-12s %s (%s)\n", p.name, p.doc, def)
		if p.bug != "" {
			fmt.Fprintf(&b, "%-12s pinned to: %s\n", "", p.bug)
		}
	}
	return b.String()
}

// sortDiags orders diagnostics by file, then position, for stable output.
func sortDiags(diags []diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
