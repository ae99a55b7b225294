//go:build reach

package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The reachability census: every function of the root module that no
// binary links. It builds the module's mains and bench/ with inlining
// off, reads their text symbols with `go tool nm`, and lists every
// non-test func the default build compiles with go/ast; a func none of
// the binaries holds is unreached. The linker keeps a method that an
// interface call can reach, so such a method counts as linked. A generic
// func links only under its shape instances (sim.Chan[go.shape.int]), so
// a symbol's type arguments are dropped before it is matched.
//
// testdata/unreached.txt lists the survivors, one per line: the name,
// a tab, and why it stays. An unreached func not on the list fails the
// census, and so does a line whose func is linked or gone: the list only
// shrinks. It builds eleven binaries, so it runs behind a tag:
//
//	go test -tags reach -run TestReach -v ./cmd/magevet/   (make reach)

// reachReasons are the reasons a func may stay unlinked.
var reachReasons = []string{
	"test accessor", // a test reads or drives the package through it
	"frozen",        // bench/ names it, and bench/ changes only with the benchmark itself
	"kept API",      // the root package's documented facade
}

// magecheckHook reports whether a func is a runtime-invariant hook, which
// only a -tags magecheck build calls: the census does not count them.
func magecheckHook(pkg, name string) bool {
	return pkg == "mage/internal/invariant" || strings.HasPrefix(name, "check") || name == "verify"
}

func TestReach(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	decls, mains := declaredFuncs(t, root)
	linked := linkedFuncs(t, root, mains)
	var unreached []string
	lines := 0
	for _, d := range decls {
		if !linked[d.key] {
			unreached = append(unreached, d.key)
			lines += d.lines
			t.Logf("unreached: %s (%s, %d lines)", d.key, d.pos, d.lines)
		}
	}
	t.Logf("%d funcs declared, %d unreached (%d lines with their doc comments)", len(decls), len(unreached), lines)

	listed := readUnreached(t, "testdata/unreached.txt")
	for _, k := range unreached {
		if _, ok := listed[k]; !ok {
			t.Errorf("%s is linked by no binary: delete it, or list it in testdata/unreached.txt with a reason", k)
		}
	}
	for k := range listed { //magevet:ok each stale line is reported; order does not matter
		if !slices.Contains(unreached, k) {
			t.Errorf("testdata/unreached.txt lists %s, which a binary links or which is gone: delete its line", k)
		}
	}
}

// decl is one declared func: its census key (package path, receiver type
// and name, joined by dots), where it is, and its lines with its doc
// comment.
type decl struct {
	key, pos string
	lines    int
}

// declaredFuncs lists the funcs that the default build of the root module
// compiles, outside bench/ and testdata/ (each a module of its own), and
// the import paths of its main packages.
func declaredFuncs(t *testing.T, root string) (decls []decl, mains []string) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		pkg := path.Join("mage", filepath.ToSlash(rel))
		if f.Name.Name == "main" && !slices.Contains(mains, pkg) {
			mains = append(mains, pkg)
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || magecheckHook(pkg, fn.Name.Name) {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			pos := fset.Position(fn.Pos())
			relFile, _ := filepath.Rel(root, pos.Filename)
			decls = append(decls, decl{
				key:   key + fn.Name.Name,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(relFile), pos.Line),
				lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, mains
}

// recvName is a receiver's type name, without its pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.ParenExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", e)
}

// linkedFuncs builds every main and bench/ with inlining off and returns
// the census keys their text symbols name: a symbol also names every
// dotted prefix of itself, so a closure (F.func1) or a method's wrapper
// marks what it lives in.
func linkedFuncs(t *testing.T, root string, mains []string) map[string]bool {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
	runCmd(t, root, "go", append(args, mains...)...)
	runCmd(t, filepath.Join(root, "bench"), "go", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")
	linked := make(map[string]bool)
	mainPkg := map[string]string{"bench": "mage/bench"}
	for _, m := range mains {
		mainPkg[path.Base(m)] = m
	}
	for exe, pkg := range mainPkg { //magevet:ok every binary's symbols go into one set; order does not matter
		out := runCmd(t, root, "go", "tool", "nm", filepath.Join(bin, exe))
		sc := bufio.NewScanner(strings.NewReader(out))
		for sc.Scan() {
			// "  4a1b20 T mage/internal/sim.(*Engine).Run": a name may hold
			// spaces (a struct shape), so it is the rest of the line.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := f[2]
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = pkg + "." + rest
			}
			p, rest := splitSymbol(dropTypeArgs(name))
			if p != "mage" && !strings.HasPrefix(p, "mage/") {
				continue
			}
			rest = strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest)
			parts := strings.Split(rest, ".")
			for i := range parts {
				linked[p+"."+strings.Join(parts[:i+1], ".")] = true
			}
		}
	}
	return linked
}

// dropTypeArgs removes every bracketed type argument list from a symbol.
func dropTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitSymbol cuts a symbol into its package path and the rest: the
// package ends at the first dot after its last slash.
func splitSymbol(s string) (pkg, rest string) {
	i := strings.LastIndex(s, "/") + 1
	j := strings.Index(s[i:], ".")
	if j < 0 {
		return s, ""
	}
	return s[:i+j], s[i+j+1:]
}

// readUnreached reads the list of survivors: name, tab, reason, where the
// reason starts with one of reachReasons; # starts a comment.
func readUnreached(t *testing.T, file string) map[string]string {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]string)
	for n, l := range strings.Split(string(text), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		key, reason, _ := strings.Cut(l, "\t")
		if !slices.ContainsFunc(reachReasons, func(r string) bool { return strings.HasPrefix(reason, r+": ") }) {
			t.Errorf("%s:%d: %q has no reason: want name, a tab, then one of %q, a colon and why", file, n+1, key, reachReasons)
		}
		if _, dup := listed[key]; dup {
			t.Errorf("%s:%d: %s is listed twice", file, n+1, key)
		}
		listed[key] = reason
	}
	return listed
}

// runCmd runs a command in dir and returns its standard output.
func runCmd(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}
