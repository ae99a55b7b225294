package main

import (
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// scripts are the files whose go test commands CI runs, read line by line
// with the markup that is not shell left out.
var scripts = []struct {
	file string
	prep func(line string) string // "" skips the line
}{
	{".github/workflows/ci.yml", func(l string) string {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "#") || strings.HasPrefix(l, "name:") || strings.HasPrefix(l, "- name:") {
			return ""
		}
		return strings.TrimPrefix(l, "run:")
	}},
	{"Makefile", func(l string) string {
		if strings.HasPrefix(l, "#") {
			return ""
		}
		return strings.ReplaceAll(strings.ReplaceAll(l, "$$", "$"), "$(GO)", "go")
	}},
}

// patternKinds says which functions each pattern flag selects from.
var patternKinds = map[string]string{"-run": "Test|Fuzz|Example", "-bench": "Benchmark", "-fuzz": "Fuzz"}

// TestCIPatternsMatch checks that every go test command of CI and the
// Makefile selects something: each |-alternative of the top level of its
// -run, -bench or -fuzz pattern must match a function of that kind
// declared in the packages the command names. A renamed test otherwise
// leaves its step running nothing, and passing.
func TestCIPatternsMatch(t *testing.T) {
	const root = "../.."
	commands := 0
	for _, s := range scripts {
		text, err := os.ReadFile(filepath.Join(root, s.file))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(text), "\n")
		for n := 0; n < len(lines); n++ {
			at, line := n+1, lines[n]
			for strings.HasSuffix(line, `\`) && n+1 < len(lines) {
				n++
				line = strings.TrimSuffix(line, `\`) + " " + lines[n]
			}
			if line = s.prep(line); line == "" {
				continue
			}
			dir := "."
			for _, cmd := range shellCommands(line) {
				if cmd[0] == "cd" && len(cmd) > 1 {
					dir = path.Join(dir, cmd[1])
				}
				if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
					continue
				}
				commands++
				for _, miss := range unmatchedPatterns(root, dir, cmd[2:]) {
					t.Errorf("%s:%d: %s", s.file, at, miss)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test command")
	}
}

// shellCommands splits a shell line into its commands' words: quotes are
// honoured, and |, ||, && and ; end a command.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord := false
	endWord := func() {
		if inWord {
			words = append(words, word.String())
		}
		word.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
		}
		words = nil
	}
	for i := 0; i < len(line); i++ {
		switch c := line[i]; c {
		case ' ', '\t':
			endWord()
		case '|', '&', ';':
			endCmd()
		case '\'', '"':
			j := strings.IndexByte(line[i+1:], c)
			if j < 0 {
				j = len(line) - i - 1
			}
			word.WriteString(line[i+1 : i+1+j])
			inWord = true
			i += j + 1
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// unmatchedPatterns returns a line for each alternative of args' -run,
// -bench and -fuzz patterns that matches no function of its kind in the
// packages args name, relative to dir.
func unmatchedPatterns(root, dir string, args []string) []string {
	var pkgs []string
	flags := map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "." || strings.HasPrefix(a, "./") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(a, "=")
		if _, ok := patternKinds[name]; !ok {
			continue
		}
		if !hasVal && i+1 < len(args) {
			i++
			val = args[i]
		}
		flags[name] = val
	}
	if len(flags) == 0 {
		return nil
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var funcs []string
	for _, p := range pkgs {
		funcs = append(funcs, testFuncs(filepath.Join(root, dir, p))...)
	}
	var miss []string
	for _, flag := range []string{"-run", "-bench", "-fuzz"} {
		pattern, ok := flags[flag]
		if !ok {
			continue
		}
		kind := regexp.MustCompile(`^(` + patternKinds[flag] + `)`)
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			if alt == "^$" {
				continue // selects nothing on purpose
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				miss = append(miss, flag+" "+alt+": "+err.Error())
				continue
			}
			found := false
			for _, f := range funcs {
				if kind.MatchString(f) && re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				kinds := strings.ReplaceAll(patternKinds[flag], "|", "/")
				miss = append(miss, flag+" "+alt+" matches no "+kinds+" function in "+strings.Join(pkgs, " "))
			}
		}
	}
	return miss
}

var testFunc = regexp.MustCompile(`^func ((Test|Fuzz|Benchmark|Example)\w*)\(`)

// testFuncs returns the test functions declared in the _test.go files of
// a package directory, whatever their build tags, or of every package
// under it for a dir/... pattern, as go test walks it.
func testFuncs(dir string) []string {
	var dirs []string
	if base, ok := strings.CutSuffix(dir, "..."); ok {
		base = filepath.Clean(base)
		_ = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != base {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // another module
				}
			}
			dirs = append(dirs, p)
			return nil
		})
	} else {
		dirs = []string{dir}
	}
	var funcs []string
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join(d, "*_test.go"))
		for _, f := range files {
			text, err := os.ReadFile(f)
			if err != nil {
				continue
			}
			for _, l := range strings.Split(string(text), "\n") {
				if m := testFunc.FindStringSubmatch(l); m != nil {
					funcs = append(funcs, m[1])
				}
			}
		}
	}
	return funcs
}
