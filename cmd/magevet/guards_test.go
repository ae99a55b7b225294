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
// matches it does not count. With onlyIn set, only a line inside a func
// whose header matches it counts, and one anywhere else fails the rule.
// With entry set, a file is a log of entries, each from a line entry
// matches to the next one, and a hit is an entry whose first line matches
// line and that runs past maxLines lines or maxBytes bytes (a zero cap is
// none). A rule like this is what keeps a deleted design deleted: nothing
// else fails when its name or its shape grows back.
type guard struct {
	name     string
	files    func(rel string) bool // rel is slash-separated, from the module root
	line     *regexp.Regexp
	exceptIn *regexp.Regexp
	onlyIn   *regexp.Regexp
	entry    *regexp.Regexp
	maxLines int
	maxBytes int
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

// upagerCode selects upager's non-test Go files but frozen.go, which
// holds what bench/ alone still needs.
func upagerCode(rel string) bool {
	return goIn("internal/upager", "frozen.go")(rel) && !strings.HasSuffix(rel, "_test.go")
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
		reason: "the evictor's: a fault reads on its own goroutine, and a fill-ahead batch is started on the backing and ends in its hook",
	},
	{
		name:   "upager starts a read in FaultAhead alone, once",
		files:  upagerCode,
		line:   regexp.MustCompile(`\.StartReadVInto\(`),
		onlyIn: regexp.MustCompile(`^func \(p \*Pager\) FaultAhead\(`),
		count:  1,
		reason: "a demand fault holds its frame before it reads, and reads into it with ReadVInto; only a fill-ahead batch is started",
	},
	{
		name:   "upager reads into no scratch page",
		files:  upagerCode,
		line:   regexp.MustCompile(`GetBuf\(`),
		count:  0,
		reason: "every read the pager makes lands in a frame it holds: no page lent to the wire before a frame is, and no copy",
	},
	{
		name:   "upager.go moves a page to evicting on one line",
		files:  is("internal/upager/upager.go"),
		line:   regexp.MustCompile(`\.state = pageEvicting`),
		count:  1,
		reason: "wbatch.add: the evictor's sweep and Flush's walk latch their pages through one batch",
	},
	{
		name:   "no evictor knob in the root module",
		files:  rootGo,
		line:   regexp.MustCompile(`\b(EvictBatch|LowWater)\b`),
		count:  0,
		reason: "New derives the evictor's batch and free-frame target from the frame count",
	},
	{
		name:   "no DES knob that nothing sets",
		files:  rootGo,
		line:   regexp.MustCompile(`\b(SyncBatch|AllocBatch|PTShards|TLBEntries|FreeLowWater|FreeHighWater|PrefetchDegree|PrefetchPolicy|PrefetchMajority|NewMajority|RetryPolicy)\b`),
		count:  0,
		reason: "core.Config holds what an experiment turns; the rest are constants of config.go and retry.go, and the majority detector is gone",
	},
	{
		name:   "the DES runs every workload to its end",
		files:  rootGo,
		line:   regexp.MustCompile(`RunUntil\(`),
		count:  0,
		reason: "the engine's one run loop is Run, which drains the queue: no deadline path, in a test or out of one",
	},
	{
		name:   "the DES engine ends a run one way",
		files:  goIn("internal/sim"),
		line:   regexp.MustCompile(`Shutdown|Stop\(\)|poison|kill\(|engineEpoch`),
		count:  0,
		reason: "Run drains the heap, panics on a simulated deadlock, or re-panics a process's panic: no early stop, no kill, no seq epoch",
	},
	{
		name:   "the DES has one machine type",
		files:  rootGo,
		line:   regexp.MustCompile(`\btype System\b|^\s*System\s*(=|struct\b)|core\.(System|NewSystem|MustNewSystem)\b|RunWithOptions`),
		count:  0,
		reason: "a single tenant is core.NewNode(cfg, nil), run with Node.Run; mage.MustNewSystem, kept for bench/, returns a *Node",
	},
	{
		name:   "no shard join or leave",
		files:  rootGo,
		line:   regexp.MustCompile(`\b(AddShard|RemoveShard|migOn|beginMigration|MovedKey)\b`),
		count:  0,
		reason: "a cluster's shard set is fixed at New: resync is the only page copy",
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
		name: "no runner names Metis or calls StreamsOn",
		files: func(rel string) bool {
			return rootGo(rel) && !strings.HasSuffix(rel, "_test.go") && !strings.HasPrefix(rel, "internal/workload/")
		},
		line:   regexp.MustCompile(`\bworkload\.Metis\b|\bStreamsOn\b`),
		count:  0,
		reason: "every workload reaches a node through Workload.Streams(threads, seed), and a warm start asks whether a workload declares ZeroFillRanges, not what type it is",
	},
	{
		name: "one rule turns a fraction into a local quota",
		files: func(rel string) bool {
			return rootGo(rel) && !strings.HasSuffix(rel, "_test.go")
		},
		line:     regexp.MustCompile(`(?i)\blocal\w*\s*:?=\s*int\(float64\(|\bint\(float64\(total\w*\)`),
		exceptIn: regexp.MustCompile(`^func LocalPages\(`),
		count:    0,
		reason:   "core.LocalPages(total, localFrac) sizes local DRAM everywhere: all-local at a fraction of 1, never under 64 pages",
	},
	{
		name: "magevet does not type-check the standard library from source",
		files: func(rel string) bool {
			return goIn("cmd/magevet")(rel) && !strings.HasSuffix(rel, "_test.go")
		},
		line:   regexp.MustCompile(`"source"`),
		count:  0,
		reason: "the loader imports the standard library from the toolchain's export data; the source importer re-checked it in every loader and was most of tier-1's wall clock",
	},
	{
		name:   "cache.go declares classSizes once",
		files:  is("cmd/magecache/cache.go"),
		line:   regexp.MustCompile(`^var classSizes = \[\.\.\.\]int\{`),
		count:  1,
		reason: "one slab class per cells-per-page count, an array literal in cache.go that TestClassTable derives from its rule: no second table, flag or growth factor",
	},
	{
		name:     "a CHANGES.md entry after PR 50's is at most 40 lines",
		files:    is("CHANGES.md"),
		entry:    regexp.MustCompile(`^- PR \d+`),
		line:     regexp.MustCompile(`^- PR (5[1-9]|[6-9]\d|\d{3,})\b`),
		maxLines: 40,
		count:    0,
		reason:   "CHANGES.md is a log: an entry says what changed, what was claimed and where its runs are, and its tables go to results/bench",
	},
	{
		name:     "a CHANGES.md entry after PR 55's is at most 3,072 bytes",
		files:    is("CHANGES.md"),
		entry:    regexp.MustCompile(`^- PR \d+`),
		line:     regexp.MustCompile(`^- PR (5[6-9]|[6-9]\d|\d{3,})\b`),
		maxBytes: 3072,
		count:    0,
		reason:   "its FOUND and MENDED lines included: the line cap alone let PRs 51-55 write 6.0-6.9 KB each in longer lines",
	},
	{
		name:    "DESIGN.md does not grow",
		files:   is("DESIGN.md"),
		line:    regexp.MustCompile(``),
		count:   1859,
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
		name: "a region file is read and written in move alone",
		files: func(rel string) bool {
			return goIn("internal/memnode")(rel) && !strings.HasSuffix(rel, "_test.go")
		},
		line:     regexp.MustCompile(`\b(preadFull|pwriteFull)\(|\bSYS_P(READ|WRITE)64\b`),
		exceptIn: regexp.MustCompile(`^func (\(f \*regionFile\) move|preadFull|pwriteFull)\(`),
		count:    0,
		reason:   "every file verb passes inBounds on its way to move, and only preadFull and pwriteFull, which move calls, issue a raw pread64 or pwrite64: no second path to the file",
	},
	{
		name: "a verb is run in serveFrames or runFile alone",
		files: func(rel string) bool {
			return goIn("internal/memnode")(rel) && !strings.HasSuffix(rel, "_test.go")
		},
		line:     regexp.MustCompile(`\b[a-z]+\.exec\(`),
		exceptIn: regexp.MustCompile(`^func \((s \*Server\) serveFrames|s \*stream\) runFile)\(`),
		count:    0,
		reason:   "a frame reaches Server.exec from its connection's loop, and a page verb on an attached region reaches the region file's exec from runFile: one entry each",
	},
	{
		name: "runFile has three callers",
		files: func(rel string) bool {
			return goIn("internal/memnode")(rel) && !strings.HasSuffix(rel, "_test.go")
		},
		line:   regexp.MustCompile(`\.runFile\(`),
		count:  3,
		reason: "doPages before a synchronous verb takes a window slot, attempts on every page-verb attempt on the file link, and startFile before a started op is made",
	},
	{
		name:   "no call runs on a region file",
		files:  goFile,
		line:   regexp.MustCompile(`\b(runCall|fileVerb|wholeTable|filePage|readVInto)\b`),
		count:  0,
		reason: "runFile takes a page verb's ranges from its prototype, with no call and no descriptor table: stream.start is the wire's one entry",
	},
	{
		name:    "memnode.IsTerminal is judged at three memcluster sites at most",
		files:   is("internal/memcluster/cluster.go", "internal/memcluster/prober.go"),
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
	strays := make([][]string, len(guards)) // onlyIn's: lines outside the funcs it allows
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
			if g.entry != nil {
				hits[i] = append(hits[i], longEntries(rel, lines, g)...)
				continue
			}
			fn := ""
			for n, l := range lines {
				if strings.HasPrefix(l, "func ") {
					fn = l
				}
				if !g.line.MatchString(l) || (g.exceptIn != nil && g.exceptIn.MatchString(fn)) {
					continue
				}
				hit := fmt.Sprintf("%s:%d: %s", rel, n+1, l)
				if g.onlyIn != nil && !g.onlyIn.MatchString(fn) {
					strays[i] = append(strays[i], hit)
					continue
				}
				hits[i] = append(hits[i], hit)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guards {
		if len(strays[i]) > 0 {
			t.Errorf("%s: %d lines outside the funcs it may be in (%s)\n%s", g.name, len(strays[i]), g.reason, strings.Join(strays[i], "\n"))
		}
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

// longEntries returns the entries of a log that g holds to its caps and
// that run past one, one line each.
func longEntries(rel string, lines []string, g guard) []string {
	var long []string
	start := -1 // the line the entry being read starts on, or -1 before the first
	end := func(n int) {
		if start < 0 || !g.line.MatchString(lines[start]) {
			return
		}
		size := 0
		for _, l := range lines[start:n] {
			size += len(l) + 1
		}
		if g.maxLines > 0 && n-start > g.maxLines || g.maxBytes > 0 && size > g.maxBytes {
			long = append(long, fmt.Sprintf("%s:%d: an entry of %d lines, %d bytes: %s", rel, start+1, n-start, size, lines[start]))
		}
	}
	for n, l := range lines {
		if g.entry.MatchString(l) {
			end(n)
			start = n
		}
	}
	end(len(lines))
	return long
}

// docs are the documents whose prose points readers at packages.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// internalPkg matches a package path under internal/.
var internalPkg = regexp.MustCompile(`\binternal/[a-z][a-z0-9_]*`)

// TestDocPackagesExist checks that every internal/<pkg> the docs name is
// a directory of the tree: a package merged away, or never built, does
// not stay in the inventory.
func TestDocPackagesExist(t *testing.T) {
	const root = "../.."
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, pkg := range internalPkg.FindAllString(line, -1) {
				if fi, err := os.Stat(filepath.Join(root, pkg)); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: %s is not a directory", doc, n+1, pkg)
				}
			}
		}
	}
}
