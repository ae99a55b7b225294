package main

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guard is one structural rule of the tree: across the files it selects,
// the lines that match line number exactly count, or at most count when
// ceiling is set. A rule like this is what keeps a deleted design
// deleted: nothing else fails when its name or its shape grows back.
type guard struct {
	name    string
	files   func(rel string) bool // rel is slash-separated, from the module root
	line    *regexp.Regexp
	count   int
	ceiling bool
	reason  string
}

var guards = []guard{
	{
		name:   "upager.go starts one goroutine",
		files:  func(rel string) bool { return rel == "internal/upager/upager.go" },
		line:   regexp.MustCompile(`^\s*go [a-zA-Z]`),
		count:  1,
		reason: "the evictor's: a fault, a fill-ahead batch and a dry-pool read are started on the backing and end in its hook",
	},
	{
		name: "only a frozen.go calls the futures and the allocating batch read",
		files: func(rel string) bool {
			return strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") && path.Base(rel) != "frozen.go"
		},
		line:   regexp.MustCompile(`\.(ReadAsync|ReadV)\(`),
		count:  0,
		reason: "ReadAsync and a backing's ReadV are kept for bench/ alone; the root module reads far memory with ReadVInto and StartReadVInto",
	},
	{
		name:    "DESIGN.md does not grow",
		files:   func(rel string) bool { return rel == "DESIGN.md" },
		line:    regexp.MustCompile(``),
		count:   1901,
		ceiling: true,
		reason:  "the prose only shrinks: lower the ceiling when it does, and cut before adding",
	},
}

// TestGuards checks every guard in one walk of the root module. bench/
// is a module of its own and testdata/ trees are fixtures, so neither is
// walked.
func TestGuards(t *testing.T) {
	const root = "../.."
	hits := make([][]string, len(guards))
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, root+string(filepath.Separator)))
		if d.IsDir() {
			if p != root && (rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		var text []byte
		for i, g := range guards {
			if !g.files(rel) {
				continue
			}
			if text == nil {
				if text, err = os.ReadFile(p); err != nil {
					return err
				}
			}
			for n, l := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
				if g.line.MatchString(l) {
					hits[i] = append(hits[i], fmt.Sprintf("%s:%d: %s", rel, n+1, l))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guards {
		n := len(hits[i])
		if n == g.count || (g.ceiling && n < g.count) {
			continue
		}
		shown := hits[i]
		if g.ceiling {
			shown = nil
		}
		want := fmt.Sprint(g.count)
		if g.ceiling {
			want = "at most " + want
		}
		t.Errorf("%s: %d lines, want %s (%s)\n%s", g.name, n, want, g.reason, strings.Join(shown, "\n"))
	}
}
