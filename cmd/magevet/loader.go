package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader discovers, parses, and type-checks the packages of one module
// using only the standard library and the toolchain: go/build selects the
// files, the gc importer reads the standard library's export data (which
// it finds through `go list -export` and keeps for the life of the
// process), and module packages are parsed and checked from source,
// recursively, in one loader.
type loader struct {
	fset   *token.FileSet
	ctxt   build.Context
	module string // module path from go.mod
	root   string // absolute module root directory
	std    types.Importer
	pkgs   map[string]*pkgInfo // keyed by import path
	errs   []error
}

// pkgInfo is one loaded package.
type pkgInfo struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	TestFiles  []string // _test.go file names: scanned for magevet:ok markers only
	Types      *types.Package
	Info       *types.Info
	loading    bool
	err        error
}

// newLoader builds a loader for the module containing dir. Extra build
// tags (e.g. "magecheck") select tag-gated files.
func newLoader(dir string, tags []string) (*loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.BuildTags = append(append([]string{}, ctxt.BuildTags...), tags...)
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		ctxt:   ctxt,
		module: module,
		root:   root,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   make(map[string]*pkgInfo),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("magevet: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("magevet: no go.mod found above %s", abs)
		}
	}
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("magevet: %s is outside module %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps an intra-module import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.module+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Import implements types.Importer: intra-module imports load
// recursively; everything else resolves from the standard library's
// export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p := l.load(path)
		if p.err != nil {
			return nil, p.err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package at an intra-module import
// path, caching the result.
func (l *loader) load(path string) *pkgInfo {
	if p, ok := l.pkgs[path]; ok {
		if p.loading {
			p.err = fmt.Errorf("magevet: import cycle through %s", path)
		}
		return p
	}
	p := &pkgInfo{ImportPath: path, Dir: l.dirFor(path), loading: true}
	l.pkgs[path] = p
	defer func() { p.loading = false }()

	bp, err := l.ctxt.ImportDir(p.Dir, 0)
	if err != nil {
		p.err = err
		return p
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	p.TestFiles = append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...)
	sort.Strings(p.TestFiles)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			p.err = err
			return p
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		p.err = fmt.Errorf("magevet: no Go files in %s", p.Dir)
		return p
	}

	p.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	p.Types, err = conf.Check(path, l.fset, p.Files, p.Info)
	if err != nil {
		p.err = err
	}
	return p
}

// discover returns the directories under each root that contain Go
// packages. A root of the form "dir/..." walks recursively; a plain
// directory is taken alone. Directories named testdata, vendor, or
// starting with "." or "_" are skipped during recursive walks.
func discover(roots []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		abs, err := filepath.Abs(d)
		if err != nil {
			return
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, r := range roots {
		base, recursive := r, false
		if strings.HasSuffix(r, "/...") {
			base, recursive = strings.TrimSuffix(r, "/..."), true
		} else if r == "..." {
			base, recursive = ".", true
		}
		if base == "" {
			base = "."
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
