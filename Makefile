GO ?= go

.PHONY: all build vet magevet test magecheck fmt fmtcheck lint check bench bench-check lineage cover reach

all: check

build:
	$(GO) build ./...

# internal/sim's switch primitive has a channel twin behind -tags simchan
# (also what -race builds and toolchains older than Go 1.23 compile), and
# internal/upager's frame arena a heap twin that -race builds (and
# platforms without unix mmap) compile; -tags race selects it without the
# race runtime. vet and magevet read both twins too.
vet:
	$(GO) vet ./...
	$(GO) vet -tags simchan ./internal/sim/
	$(GO) vet -tags race ./internal/upager/

# Static-analysis suite: determinism rules for the DES core plus the
# bug-class passes (overflowcmp, lockscope, mapdrain, errdrop,
# oksuppress); see DESIGN.md §12. Any finding fails, under both
# build-tag variants.
magevet:
	$(GO) run ./cmd/magevet ./...
	$(GO) run ./cmd/magevet -tags magecheck ./...
	$(GO) run ./cmd/magevet -tags simchan ./internal/sim/
	$(GO) run ./cmd/magevet -tags race ./internal/upager/

test:
	$(GO) test ./...

# The reachability census: every main and bench/ built with inlining
# off, their symbols read with go tool nm, and every function the root
# module declares that none of them links held to the reasoned list in
# cmd/magevet/testdata/unreached.txt. A new unlinked function fails it,
# and so does a listed one that is linked or gone. It builds eleven
# binaries, so it sits behind the reach tag, outside `go test ./...`.
reach:
	$(GO) test -tags reach -run '^TestReach$$' -count=1 -v ./cmd/magevet/

# Runtime invariant checks compiled in via the magecheck build tag.
magecheck:
	$(GO) test -race -tags magecheck ./internal/...

fmt:
	gofmt -l .

# fmtcheck fails (unlike fmt, which only lists) so lint/CI can gate on it.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# The full static gate CI's static-analysis job runs: formatting, go
# vet, and the magevet suite.
lint: fmtcheck vet magevet

# Benchmark pins: engine dispatch + figure regeneration + the fault
# pipeline with and without injected faults + the memnode wire protocol
# (depth-1 write+read roundtrip, depth-32 TCP pipeline, and the depth-32
# file link), each checked by benchsnap -require, which fails loudly if
# a pinned metric stops being reported or breaks its bound; the shm pins
# hold the file link's numbers (pages/s, p99, allocs/op) in every run.
# On platforms without the shm transport BenchmarkMemnodeShmPipeline
# skips, so the shm pins would fail: bench is a Linux target.
# The memcluster failover pin (p99 of reads on a 3x2 cluster with one
# replica down) keeps the degraded-mode tail in every run.
# The engine pins are hard floors, not just presence checks: dispatch
# must stay at or above 2.7M events/s with no allocation per event (a
# process is a coroutine the run loop resumes; with a goroutine parked
# on a channel in its place the reference box reads 1.6-2.4M). The
# figure-regeneration pin is ROADMAP aim 1's wall clock: fig5 + fig7 +
# fig14 on one worker in at most 4.0 s (2.1-2.7 s measured; 3.2-5.5 s
# with the channel hand-off back, as the box's speed that day has it).
# The fault-path count pin holds the DES to a number the box's speed
# cannot move: coroutine resumes per simulated major fault on the
# Mage^LIB stack. An IPI in flight and a posted RDMA write are chains of
# continuations, not processes, and cost no resume; 6.6-6.8 measured at
# the 0.2-2M faults a one-second run reaches (7.9 while each was a
# spawned process), hence a ceiling of 7.2. A one-shot helper that
# becomes a process again breaks it.
# The magecache pin is the headline end-to-end floor: the KV cache over
# the user-level pager must sustain >= 120k ops/s with its value heap
# at a remote:local ratio of 8:1 on a live memnode socket (measured
# ~360k on the reference box; the floor leaves 3x for noisy runners),
# with the p99 recorded alongside.
# The pager-fault pins are ceilings on what a demand fault costs beyond
# its round trip, on TCP, on the file link and over a 2 x 2 memcluster:
# nothing from the allocator, since a fault reads its page straight into
# its frame (a mean over a run in which the collector empties the pools
# now and then and the TCP writer's release of a call sometimes loses to
# the reader: 0.01 on TCP, 0.001 on the file link, hence 0.05; the
# future the fault used to start reads 1); on the cluster, whose read
# builds its replica ladder and its one part on the caller's stack,
# nothing (0.00 measured, hence 0.1; either on the heap reads 1); and no
# goroutine (the count is off by up to sixteen
# ids per P, hence 0.01, not 0; a goroutine per fault reads 1). Each of
# the three reads the wire on every fault: its pages are written back
# before the timed loop, and zero-fills/fault is pinned at 0, for a page
# the pager never wrote back faults in as zeros with no read, and a
# fault that clears a frame measures no round trip. /zero is that fault:
# a fresh region, every fault a zero-fill (>= 1), under the same
# allocation and goroutine ceilings. Beside
# them the allocation ceilings of the memnode pipelines: none on the
# file link and none on TCP (a read's body goes back to the pool in a
# recycled box; the in-process server, one loop per connection,
# allocates nothing per frame).
# The pin-hit pins are the other side of the pager: a Pin of a resident
# page records itself for victim selection under the lock it already
# holds, and must stay a few tens of nanoseconds and no allocation (68 ns
# measured; 250 leaves room for noisy runners and none for a second lock
# or a map on that path).
# The built-node pin is the DES's host footprint, which the box's
# speed cannot move: the heap a fresh single-tenant Mage^LIB node holds
# in sim-grid's shape (24 threads, 16 Ki pages, the default 2 x 28
# machine). A core's TLB is built on its first Touch, so the cores no
# thread runs on cost a few words: 418 kB measured, hence 630000 (about 1.5 x); with every
# core's TLB built up front, a ring and a map each, it read 3.87 MB.
# -p 1 runs one package's benchmarks at a time, so that no floor measures
# two packages overlapping on the box's cores (on 2 vCPUs the dispatch
# floor read 2.27M beside the others and 3.8-4.2M alone).
bench:
	$(GO) test -p 1 -run '^$$' -benchmem -bench 'BenchmarkEngineDispatch|BenchmarkParexpFigures|BenchmarkFaultPathMageLib|BenchmarkFaultToleranceMageLib|BenchmarkColocateNode|BenchmarkMemnodePipeline|BenchmarkMemnodeShmPipeline|BenchmarkServerRoundtrip|BenchmarkClusterFailoverRead|BenchmarkMagecacheZipf|BenchmarkPagerFault|BenchmarkPinHit|BenchmarkNewSystemMageLib' ./... \
		| tee /dev/stderr | $(GO) run ./cmd/benchsnap \
			-require 'BenchmarkMemnodePipeline:pages/s,BenchmarkMemnodePipeline:p99-us,BenchmarkServerRoundtrip:allocs/op,BenchmarkMemnodeShmPipeline:pages/s,BenchmarkMemnodeShmPipeline:p99-us,BenchmarkMemnodeShmPipeline:allocs/op,BenchmarkClusterFailoverRead:pages/s,BenchmarkClusterFailoverRead:p99-us,BenchmarkEngineDispatch:events/s>=2700000,BenchmarkEngineDispatch:allocs/op<=0,BenchmarkParexpFigures/sequential:ns/op<=4000000000,BenchmarkFaultPathMageLib:resumes/fault<=7.2,BenchmarkMagecacheZipf:ops/s>=120000,BenchmarkMagecacheZipf:p99-us,BenchmarkMagecacheZipf:value-bytes/carved-byte>=0.9,BenchmarkPagerFault/tcp:allocs/fault<=0.05,BenchmarkPagerFault/shm:allocs/fault<=0.05,BenchmarkPagerFault/cluster:allocs/fault<=0.1,BenchmarkPagerFault/tcp:goroutines/fault<=0.01,BenchmarkPagerFault/shm:goroutines/fault<=0.01,BenchmarkPagerFault/cluster:goroutines/fault<=0.01,BenchmarkPagerFault/tcp:zero-fills/fault<=0,BenchmarkPagerFault/shm:zero-fills/fault<=0,BenchmarkPagerFault/cluster:zero-fills/fault<=0,BenchmarkPagerFault/zero:zero-fills/fault>=1,BenchmarkPagerFault/zero:allocs/fault<=0.05,BenchmarkPagerFault/zero:goroutines/fault<=0.01,BenchmarkPinHit:ns/op<=250,BenchmarkPinHit:allocs/op<=0,BenchmarkMemnodeShmPipeline:allocs/op<=0,BenchmarkMemnodePipeline:allocs/op<=0,BenchmarkNewSystemMageLib:B/op<=630000'

# bench/ is a module of its own (BENCHMARK.json's harness), so build,
# vet and test above never compile it: a change to upager.Backing,
# upager.Pager, memnode.Client or mage.Preset can break it unseen.
# bench-check vets it and runs its tests (harness arithmetic and the
# correctness self-test; no daemons, under a second). It runs no
# benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The committed performance lineage: every pair in results/bench, a
# parent's runs (NNN-<rev>.json) and its change's (NNN-<rev>-change.json),
# through bench's -compare, which reads the committed files alone, so the
# box it runs on cannot move it. A worse row fails it, and so does a
# workload whose runs are missing or failed.
lineage:
	@set -e; for base in results/bench/*.json; do \
		case $$base in *-change.json) continue;; esac; \
		$(GO) run -C bench . -compare "$(CURDIR)/$$base" "$(CURDIR)/$${base%.json}-change.json"; \
	done

# Coverage floor for internal/core, set just under the level the
# Node/Tenant split landed at so fault/eviction-path statements cannot
# quietly fall out of the test net. CI fails below the floor.
COVER_FLOOR_CORE ?= 90.0

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=mage/internal/core ./internal/... .
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "internal/core coverage: $${total}% (floor $(COVER_FLOOR_CORE)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR_CORE)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "internal/core coverage $${total}% fell below the $(COVER_FLOOR_CORE)% floor" >&2; exit 1; }

check: build lint test magecheck
