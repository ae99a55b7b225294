package main

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// guard is one structural rule of the tree: across the files it selects,
// the lines that match line number exactly count, or at most count when
// ceiling is set. With exceptIn set, a line inside a func whose header
// matches it does not count. A rule like this is what keeps a deleted
// design deleted: nothing else fails when its name or its shape grows
// back.
type guard struct {
	name     string
	files    func(rel string) bool // rel is slash-separated, from the module root
	line     *regexp.Regexp
	exceptIn *regexp.Regexp
	count    int
	ceiling  bool
	reason   string
}

// goFile selects every Go file, bench/ and testdata/ fixtures included,
// but this one, which names what the guards forbid.
func goFile(rel string) bool {
	return strings.HasSuffix(rel, ".go") && rel != "cmd/magevet/guards_test.go"
}

// rootGo selects the root module's Go files, fixtures left out.
func rootGo(rel string) bool {
	return goFile(rel) && !strings.HasPrefix(rel, "bench/") && !strings.Contains("/"+rel, "/testdata/")
}

// is selects the files named.
func is(names ...string) func(string) bool {
	return func(rel string) bool { return slices.Contains(names, rel) }
}

// goIn selects the Go files of dir, not of its subdirectories, but those
// named in except.
func goIn(dir string, except ...string) func(string) bool {
	return func(rel string) bool {
		return goFile(rel) && path.Dir(rel) == dir && !slices.Contains(except, path.Base(rel))
	}
}

// madvHuge matches a request for transparent huge pages (MADV_HUGEPAGE,
// or a helper named for it), not MADV_NOHUGEPAGE.
var madvHuge = regexp.MustCompile(`(?i)madv(ise)?_?hugepage`)

var guards = []guard{
	{
		name:   "upager.go starts one goroutine",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`^\s*go [a-zA-Z]`),
		count:  1,
		reason: "the evictor's: a fault, a fill-ahead batch and a dry-pool read are started on the backing and end in its hook",
	},
	{
		name:   "cluster.go starts two goroutines",
		files:  is("internal/memcluster/cluster.go"),
		line:   regexp.MustCompile(`^\s*go [a-zA-Z]`),
		count:  2,
		reason: "the prober's and a failed rung's climb: every replica of every part of a write is a started WRITEV",
	},
	{
		name: "only a frozen.go calls the futures and the allocating batch read",
		files: func(rel string) bool {
			return rootGo(rel) && !strings.HasSuffix(rel, "_test.go") && path.Base(rel) != "frozen.go"
		},
		line:   regexp.MustCompile(`\.(ReadAsync|ReadV)\(`),
		count:  0,
		reason: "ReadAsync and a backing's ReadV are kept for bench/ alone; the root module reads far memory with ReadVInto and StartReadVInto",
	},
	{
		name:   "cache.go declares classSizes once",
		files:  is("cmd/magecache/cache.go"),
		line:   regexp.MustCompile(`^var classSizes = \[\.\.\.\]int\{`),
		count:  1,
		reason: "one slab class per cells-per-page count, an array literal in cache.go that TestClassTable derives from its rule: no second table, flag or growth factor",
	},
	{
		name:    "DESIGN.md does not grow",
		files:   is("DESIGN.md"),
		line:    regexp.MustCompile(``),
		count:   1893,
		ceiling: true,
		reason:  "the prose only shrinks: lower the ceiling when it does, and cut before adding",
	},
	{
		name:   "sim.go makes no hand-off of its own",
		files:  is("internal/sim/sim.go"),
		line:   regexp.MustCompile(`chan |go func|"sync"`),
		count:  0,
		reason: "one dispatcher, one switch: switches belong to switch_coro.go and its twin",
	},
	{
		name: "iter.Pull is named in no other non-test Go file",
		files: func(rel string) bool {
			return goFile(rel) && !strings.HasSuffix(rel, "_test.go") && rel != "internal/sim/switch_coro.go"
		},
		line:   regexp.MustCompile(`iter\.Pull`),
		count:  0,
		reason: "a simulated process is an iter.Pull coroutine in internal/sim/switch_coro.go alone",
	},
	{
		name:   "switch_coro.go pulls once",
		files:  is("internal/sim/switch_coro.go"),
		line:   regexp.MustCompile(`iter\.Pull\(`),
		count:  1,
		reason: "the one coroutine switch",
	},
	{
		name:   "v1 is gone",
		files:  goFile,
		line:   regexp.MustCompile(`protoV1|execV1|executeBatchV1|decomposeBatch|V1Fallbacks|MaxProtocol|v1mu|ShmArenaBytes`),
		count:  0,
		reason: "the v1 protocol and its options were deleted",
	},
	{
		name:   "no socket deadline past the handshakes",
		files:  is("internal/memnode/client.go", "internal/memnode/shm_client.go"),
		line:   regexp.MustCompile(`SetReadDeadline|SetWriteDeadline`),
		count:  0,
		reason: "one link core: the watchdog times calls, the handshakes use SetDeadline",
	},
	{
		name:   "no second call table",
		files:  func(rel string) bool { return strings.HasPrefix(rel, "internal/memnode/") },
		line:   regexp.MustCompile(`map\[uint64\]\*call`),
		count:  0,
		reason: "one link core: both links file calls in the calls core",
	},
	{
		name:   "no worker pool or writer goroutine in the server",
		files:  goFile,
		line:   regexp.MustCompile(`\b(connWorkers|inlineExecMax|tcpFrame|writeFrames)\b`),
		count:  0,
		reason: "a TCP connection is one loop on one goroutine",
	},
	{
		name:   "memnode.go starts three goroutines",
		files:  is("internal/memnode/memnode.go"),
		line:   regexp.MustCompile(`^\s*go `),
		count:  3,
		reason: "two accept loops and the per-connection handler",
	},
	{
		name:   "the ring is gone",
		files:  goFile,
		line:   regexp.MustCompile(`\b(shmRing|shmArena|shmWait|shmBell|shmOSYield)\b`),
		count:  0,
		reason: "the shm ring was replaced by the file link",
	},
	{
		name:   "memnode maps memory in its two allocators alone",
		files:  goIn("internal/memnode", "region_alloc_linux.go", "shm_sys_linux.go"),
		line:   regexp.MustCompile(`Mmap\(`),
		count:  0,
		reason: "region_alloc_linux.go and shm_sys_linux.go are where memnode maps memory",
	},
	{
		name:   "memnode advises no huge pages",
		files:  goIn("internal/memnode"),
		line:   madvHuge,
		count:  0,
		reason: "placement interleaves shards page by page, so a region is committed 4 KiB at a time: a huge page would zero and keep 2 MiB for one page",
	},
	{
		name:     "shm_sys_linux.go maps in allocRegionFile and mapCounterPage alone",
		files:    is("internal/memnode/shm_sys_linux.go"),
		line:     regexp.MustCompile(`Mmap\(`),
		exceptIn: regexp.MustCompile(`^func (allocRegionFile|mapCounterPage)\(`),
		count:    0,
		reason:   "the server maps a region file, the client its counter page, and nothing else",
	},
	{
		name:   "the client maps no region file itself",
		files:  is("internal/memnode/shm_client.go", "internal/memnode/client.go"),
		line:   regexp.MustCompile(`Mmap\(`),
		count:  0,
		reason: "a file-link client's page verbs are preads and pwrites",
	},
	{
		name:    "memnode.IsTerminal is judged at three memcluster sites at most",
		files:   is("internal/memcluster/cluster.go", "internal/memcluster/prober.go", "internal/memcluster/rebalance.go"),
		line:    regexp.MustCompile(`IsTerminal\(`),
		count:   3,
		ceiling: true,
		reason:  "rungOver, the write loop's judge and the prober: no second replica loop",
	},
	{
		name: "no per-caller copy of the climb, the write loop or the mover",
		files: func(rel string) bool {
			return goFile(rel) && strings.HasPrefix(rel, "internal/memcluster/")
		},
		line:   regexp.MustCompile(`readOne|readVShard|writeOne|writeVShard|writeMoved|Excluding|copyMovedPage\b|readSpanLocked`),
		count:  0,
		reason: "one of each: no single-page fork grown back",
	},
	{
		name:   "one event queue",
		files:  goFile,
		line:   regexp.MustCompile(`NewEngineShards|DefaultShards|EngineShards|SetSpawnDomain|SpawnIn\(|\.Domain\(\)|EngineDispatchSharded`),
		count:  0,
		reason: "no sharded engine, spawn domain or shard-count knob: the engine keeps one heap",
	},
	{
		name:   "upager maps memory in its arena files alone",
		files:  goIn("internal/upager", "arena_unix.go", "arena_linux.go"),
		line:   regexp.MustCompile(`syscall\.Mmap`),
		count:  0,
		reason: "one place per platform maps the arena",
	},
	{
		name:   "upager advises huge pages in its arena file alone",
		files:  goIn("internal/upager", "arena_linux.go"),
		line:   madvHuge,
		count:  0,
		reason: "the frames are the dense, hot memory that huge pages are for; nothing else of the pager's is",
	},
	{
		name:   "upager.go makes no byte slice",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`make\(\[\]byte`),
		count:  0,
		reason: "the frames come from mapArena",
	},
	{
		name:   "no CLOCK hand or reference bit in upager.go",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`\b(hand|ref)\b`),
		count:  0,
		reason: "victim selection lives in selection.go alone",
	},
	{
		name:   "no speculative read path outside upager.go",
		files:  goIn("internal/upager", "upager.go"),
		line:   regexp.MustCompile(`[Pp]refetch|Detector|speculative`),
		count:  0,
		reason: "the pager reads only what it is asked for",
	},
	{
		name:   "upager.go names prefetch on one line",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`[Pp]refetch|Detector|speculative`),
		count:  1,
		reason: "the inert Options.NoPrefetch, which bench/ still sets, and nothing else",
	},
	{
		name:   "that line is Options.NoPrefetch",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`^\s+NoPrefetch bool$`),
		count:  1,
		reason: "the one line upager.go may name prefetch on",
	},
}

// TestGuards checks every guard in one walk of the tree, bench/ and the
// testdata/ fixtures included: a guard's files say which it reads.
func TestGuards(t *testing.T) {
	const root = "../.."
	hits := make([][]string, len(guards))
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, root+string(filepath.Separator)))
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		var lines []string
		for i, g := range guards {
			if !g.files(rel) {
				continue
			}
			if lines == nil {
				text, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				lines = strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
			}
			fn := ""
			for n, l := range lines {
				if strings.HasPrefix(l, "func ") {
					fn = l
				}
				if g.line.MatchString(l) && (g.exceptIn == nil || !g.exceptIn.MatchString(fn)) {
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
