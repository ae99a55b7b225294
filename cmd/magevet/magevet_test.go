package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wantDiagnostics parses the fixture tree's "// want <check>..." comments
// into the set of expected findings, keyed by file:line.
func wantDiagnostics(t *testing.T, root string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, line)
			want[key] = append(want[key], strings.Fields(marker)...)
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

const fixtureRoot = "testdata/mage"

// mustSelect resolves a -passes/-skip pair against the registry.
func mustSelect(t *testing.T, passesFlag, skipFlag string) []*pass {
	t.Helper()
	ps, err := selectPasses(passesFlag, skipFlag)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// fixtures is the fixture tree, loaded and type-checked once per test
// binary: that is most of what a run over it costs, and the tests below
// differ only in the pass set.
var fixtures struct {
	once   sync.Once
	ld     *loaded
	nerrs  int
	stderr bytes.Buffer
}

// fixtureDiags runs the given pass set over the fixture tree.
func fixtureDiags(t *testing.T, passes []*pass) []diagnostic {
	t.Helper()
	fixtures.once.Do(func() {
		fixtures.ld, fixtures.nerrs = loadRoots([]string{fixtureRoot + "/..."}, nil, &fixtures.stderr)
	})
	if fixtures.nerrs > 0 || fixtures.ld == nil {
		t.Fatalf("%d load error(s) loading fixtures:\n%s", fixtures.nerrs, &fixtures.stderr)
	}
	return fixtures.ld.analyze(passes, io.Discard)
}

// TestFixtures checks the full default suite against the expected-
// diagnostic comments in testdata/mage: every want comment must be
// matched by exactly the named checks, and no unexpected findings may
// appear.
func TestFixtures(t *testing.T) {
	diags := fixtureDiags(t, mustSelect(t, "", ""))

	got := make(map[string][]string)
	for _, d := range diags {
		rel, err := filepath.Rel(mustGetwd(t), d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		key := fmt.Sprintf("%s:%d", rel, d.pos.Line)
		got[key] = append(got[key], d.check)
	}

	want := wantDiagnostics(t, fixtureRoot)
	for key, checks := range want {
		sort.Strings(checks)
		g := append([]string(nil), got[key]...)
		sort.Strings(g)
		if strings.Join(g, " ") != strings.Join(checks, " ") {
			t.Errorf("%s: got checks %v, want %v", key, g, checks)
		}
		delete(got, key)
	}
	for key, checks := range got {
		t.Errorf("%s: unexpected finding(s) %v", key, checks)
	}
}

// TestEveryPassHasFixture is the registry meta-test: a pass may not be
// registered without a fixture line pinning its behavior, so the suite
// cannot silently grow unexercised checks.
func TestEveryPassHasFixture(t *testing.T) {
	covered := make(map[string]bool)
	for _, checks := range wantDiagnostics(t, fixtureRoot) {
		for _, c := range checks {
			covered[c] = true
		}
	}
	for _, p := range registry {
		if !covered[p.name] {
			t.Errorf("pass %s has no '// want %s' fixture under %s", p.name, p.name, fixtureRoot)
		}
		if p.doc == "" || p.bug == "" {
			t.Errorf("pass %s: registry entry needs both doc and bug strings", p.name)
		}
	}
}

// TestPassEnableDisable pins the selection contract per new pass: its
// fixture findings appear when the pass runs (alone or in the default
// set) and vanish when it is skipped.
func TestPassEnableDisable(t *testing.T) {
	count := func(diags []diagnostic, check string) int {
		n := 0
		for _, d := range diags {
			if d.check == check {
				n++
			}
		}
		return n
	}
	for _, name := range []string{"overflowcmp", "lockscope", "mapdrain", "errdrop"} {
		if n := count(fixtureDiags(t, mustSelect(t, name, "")), name); n == 0 {
			t.Errorf("pass %s alone: no fixture findings", name)
		}
		if n := count(fixtureDiags(t, mustSelect(t, "", name)), name); n != 0 {
			t.Errorf("skip %s: %d findings still reported", name, n)
		}
	}
	// oksuppress needs the whole suppressible suite to judge staleness,
	// so it is exercised via the default set.
	if n := count(fixtureDiags(t, mustSelect(t, "", "")), "oksuppress"); n == 0 {
		t.Error("default suite: no oksuppress fixture findings")
	}
	if n := count(fixtureDiags(t, mustSelect(t, "", "oksuppress")), "oksuppress"); n != 0 {
		t.Errorf("skip oksuppress: %d findings still reported", n)
	}
}

// TestOKSuppressNeedsFullSuite pins the coverage gate: with part of the
// suppressible suite disabled, staleness is undecidable and the audit
// must skip with a note instead of reporting false positives.
func TestOKSuppressNeedsFullSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-passes", "overflowcmp,oksuppress", "./" + fixtureRoot + "/..."}, &stdout, &stderr)
	if code != 1 { // overflowcmp fixtures still fail the run
		t.Fatalf("run = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "oksuppress skipped") {
		t.Errorf("stderr missing the oksuppress-skipped note: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "oksuppress") {
		t.Errorf("oksuppress findings reported despite partial suite:\n%s", &stdout)
	}
}

// TestUsageAndListCoverRegistry guards the generated help text: every
// registered pass must appear in both the usage catalog and -list, so
// the documented check list cannot drift from the implemented one.
func TestUsageAndListCoverRegistry(t *testing.T) {
	usage, list := usageText(), listText()
	for _, p := range registry {
		if !strings.Contains(usage, p.name) {
			t.Errorf("usage text missing pass %s", p.name)
		}
		if !strings.Contains(list, p.name) || !strings.Contains(list, p.bug) {
			t.Errorf("-list output missing pass %s or its pinned bug", p.name)
		}
	}
	var stdout bytes.Buffer
	if code := run([]string{"-list"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("run -list = %d, want 0", code)
	}
	if stdout.String() != list {
		t.Error("-list output does not match listText()")
	}
}

// TestJSONOutput checks the machine-readable mode: findings come out as
// a JSON array with file, position, check, and message populated.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./" + fixtureRoot + "/internal/ioerr"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	var got []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, &stdout)
	}
	if len(got) == 0 {
		t.Fatal("no JSON findings for the ioerr fixture")
	}
	for _, d := range got {
		if d.File == "" || d.Line == 0 || d.Check != "errdrop" || d.Msg == "" {
			t.Errorf("incomplete JSON finding: %+v", d)
		}
	}
}

// TestBaselineRatchet drives the debt workflow: -write-baseline
// captures the current findings, a run against that baseline is clean,
// and the stored entries carry no line numbers so they survive
// unrelated edits above them.
func TestBaselineRatchet(t *testing.T) {
	bl := filepath.Join(t.TempDir(), "baseline.json")
	root := "./" + fixtureRoot + "/..."

	var stderr bytes.Buffer
	if code := run([]string{"-write-baseline", bl, root}, io.Discard, &stderr); code != 0 {
		t.Fatalf("write-baseline = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	var stdout bytes.Buffer
	stderr.Reset()
	if code := run([]string{"-baseline", bl, root}, &stdout, &stderr); code != 0 {
		t.Fatalf("run with fresh baseline = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}

	data, err := os.ReadFile(bl)
	if err != nil {
		t.Fatal(err)
	}
	var entries []jsonDiag
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("baseline is not a JSON array: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("baseline captured no findings")
	}
	for _, e := range entries {
		if e.Line != 0 || e.Col != 0 {
			t.Errorf("baseline entry carries a position (%+v): entries must be line-less", e)
		}
	}
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// TestRunExitCodes drives the command entry point: the fixture tree must
// fail with exit 1, and the summary line must reach stderr.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./" + fixtureRoot + "/..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run on fixtures = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %q", stderr.String())
	}
}

// TestRepoIsClean locks in the repo-wide guarantee: the live tree has no
// magevet findings — with no baseline — under both build-tag variants.
func TestRepoIsClean(t *testing.T) {
	for _, tags := range []string{"", "magecheck"} {
		args := []string{"../../..."}
		if tags != "" {
			args = append([]string{"-tags", tags}, args...)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("run(tags=%q) = %d, want 0\nstdout:\n%s\nstderr:\n%s",
				tags, code, &stdout, &stderr)
		}
	}
}

// TestBadFlagExits ensures flag and selection errors surface as exit 2.
func TestBadFlagExits(t *testing.T) {
	if code := run([]string{"-nosuchflag"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("run with bad flag = %d, want 2", code)
	}
	if code := run([]string{"-passes", "nosuchpass"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("run with unknown pass = %d, want 2", code)
	}
}
