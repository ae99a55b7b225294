package mage_test

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lineageName is a committed benchmark set's file name: the change's
// number, the revision its parent side ran at, and -change on the side
// that ran the change. The name is what ties a set to a revision when
// the harness ran from a tree without .git and stamped git=unknown.
var lineageName = regexp.MustCompile(`^(\d{3})-([0-9a-f]{7,40})(-change)?\.json$`)

// lineageFile is the part of a benchmark -out set the lineage checks.
type lineageFile struct {
	Stamp struct {
		GitRev    string   `json:"git_rev"`
		Workloads []string `json:"workloads"`
		Runs      int      `json:"runs"`
	} `json:"stamp"`
	Runs []struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Correct  bool   `json:"correct"`
		Failed   int64  `json:"failed"`
	} `json:"runs"`
}

// runKey is one row of a set's run count: a workload, traced or not.
type runKey struct {
	workload string
	traced   bool
}

// TestLineageFiles holds every file of results/bench to its name: a
// parent set and its -change twin side by side, and runs of declared
// workloads that were all correct with no failed operation. The parent's
// stamp names the revision in the file name, the change's another one (the
// change, which the name cannot know), or either says unknown; a tree with
// uncommitted edits names no revision. The twins hold as many runs of each
// workload, traced and untraced, and each set at least its stamp's runs
// untraced runs of every workload the stamp names: bench's -compare holds
// a set to that one count, so a merged set could lack runs unseen.
func TestLineageFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}

	paths, err := filepath.Glob(filepath.Join("results", "bench", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("results/bench holds no lineage file")
	}
	present := map[string]bool{}
	for _, p := range paths {
		present[filepath.Base(p)] = true
	}
	counts := map[string]map[runKey]int{} // by file name
	for _, p := range paths {
		name := filepath.Base(p)
		m := lineageName.FindStringSubmatch(name)
		if m == nil {
			t.Errorf("%s: name is not NNN-<rev>(-change).json", name)
			continue
		}
		twin := m[1] + "-" + m[2] + ".json"
		if m[3] == "" {
			twin = m[1] + "-" + m[2] + "-change.json"
		}
		if !present[twin] {
			t.Errorf("%s: its twin %s is missing", name, twin)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var f lineageFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		switch rev := f.Stamp.GitRev; {
		case rev == "unknown":
		case strings.HasSuffix(rev, "+dirty"):
			t.Errorf("%s: stamped git_rev %q: the tree had uncommitted edits", name, rev)
		case m[3] == "" && !strings.HasPrefix(rev, m[2]):
			t.Errorf("%s: stamped git_rev %q, not revision %s", name, rev, m[2])
		case m[3] != "" && strings.HasPrefix(rev, m[2]):
			t.Errorf("%s: stamped git_rev %q, the parent's revision", name, rev)
		}
		if len(f.Runs) == 0 {
			t.Errorf("%s: no runs", name)
		}
		n := map[runKey]int{}
		for i, r := range f.Runs {
			if !workloads[r.Workload] {
				t.Errorf("%s: run %d: workload %q is not in BENCHMARK.json", name, i, r.Workload)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s: run %d (%s): correct=%v failed=%d", name, i, r.Workload, r.Correct, r.Failed)
			}
			n[runKey{r.Workload, r.Traced}]++
		}
		for _, w := range f.Stamp.Workloads {
			if got := n[runKey{w, false}]; got < f.Stamp.Runs {
				t.Errorf("%s: %d untraced runs of %s; its stamp asks for %d", name, got, w, f.Stamp.Runs)
			}
		}
		counts[name] = n
	}
	for _, p := range paths {
		name := filepath.Base(p)
		m := lineageName.FindStringSubmatch(name)
		if m == nil || m[3] != "" {
			continue
		}
		n, twin := counts[name], counts[m[1]+"-"+m[2]+"-change.json"]
		if n != nil && twin != nil && !maps.Equal(n, twin) {
			t.Errorf("%s: runs by workload and tracing %v; its twin's %v", name, n, twin)
		}
	}
}
