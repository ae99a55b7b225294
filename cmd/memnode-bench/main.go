// Command memnode-bench load-tests a far-memory node daemon: it
// registers a region, then drives one-sided page reads and writes
// through the pipelined client, reporting throughput and latency
// percentiles — the network-substrate counterpart of the simulated NIC
// benchmarks.
//
// -depth controls how many requests each connection keeps in flight
// (depth 1 degenerates to the old stop-and-wait behavior); -batch > 1
// moves batches of pages per verb via READV/WRITEV. -transport selects
// the data plane: tcp pins the v2 TCP protocol, shm requires the file
// link (the server must offer it: -spawn does, and `memnode -transport
// shm` does), auto negotiates shm with transparent TCP fallback. -compare runs the identical workload over
// both transports in one invocation and prints them side by side with
// the shm:tcp throughput ratio. A run in which any operation failed
// exits 1, in every mode. The ISSUE's headline number is that
// ratio at depth 32 on a single connection:
//
//	memnode-bench -spawn -workers 1 -depth 32 -compare
//
// -cluster N leaves single-node mode entirely: it spawns N shards x
// -replicas R in-process memory nodes and drives the sharded,
// replicated memcluster client against them, reporting the cluster's
// robustness counters (failovers, readmissions, resynced pages) next
// to the usual throughput/latency spread. -chaos kills one replica a
// quarter of the way in, restarts it at the halfway mark, and fails
// the run unless the replica is re-admitted after resync with zero
// failed operations:
//
//	memnode-bench -cluster 3 -replicas 2 -chaos -region-mb 64
//
// Usage:
//
//	memnode &                                # or: memnode-bench -spawn
//	memnode-bench -addr 127.0.0.1:7170 -workers 8 -ops 20000 -write-frac 0.2 -depth 32 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
)

type report struct {
	Transport   string  `json:"transport"`
	Workers     int     `json:"workers"`
	Depth       int     `json:"depth"`
	Batch       int     `json:"batch"`
	PageBytes   int64   `json:"page_bytes"`
	Ops         uint64  `json:"ops"`
	Pages       uint64  `json:"pages"`
	Errors      uint64  `json:"errors"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	PagesPerSec float64 `json:"pages_per_sec"`
	MiBPerSec   float64 `json:"mib_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P50Us       float64 `json:"p50_us"`
	P90Us       float64 `json:"p90_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`

	// SLO accounting (-slo-p99-us): sampled ops over the target burn
	// error budget; the run reports how much is left.
	SLOTargetUs        float64 `json:"slo_target_us,omitempty"`
	SLOViolations      uint64  `json:"slo_violations,omitempty"`
	SLOSampled         uint64  `json:"slo_sampled,omitempty"`
	SLOBudgetRemaining float64 `json:"slo_budget_remaining,omitempty"`
	SLOMet             bool    `json:"slo_met,omitempty"`

	// Cluster-mode extras (-cluster N): topology and the robustness
	// counters of the sharded client.
	Shards         int    `json:"shards,omitempty"`
	Replicas       int    `json:"replicas,omitempty"`
	Chaos          bool   `json:"chaos,omitempty"`
	Failovers      uint64 `json:"failovers,omitempty"`
	Readmissions   uint64 `json:"readmissions,omitempty"`
	ResyncedPages  uint64 `json:"resynced_pages,omitempty"`
	DegradedWrites uint64 `json:"degraded_writes,omitempty"`
}

type config struct {
	workers   int
	depth     int
	batch     int
	ops       int
	writeFrac float64
	regionMB  int64
	pageBytes int64
	seed      int64
	sloP99Us  float64 // 0 disables SLO accounting
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7170", "memory node address")
		spawn     = flag.Bool("spawn", false, "start an in-process memory node instead of dialing addr")
		regionMB  = flag.Int64("region-mb", 256, "region size to register (MiB)")
		workers   = flag.Int("workers", 8, "concurrent client connections")
		depth     = flag.Int("depth", 1, "requests in flight per connection")
		batch     = flag.Int("batch", 1, "pages per operation (>1 uses READV/WRITEV)")
		ops       = flag.Int("ops", 20000, "operations per worker")
		writeFrac = flag.Float64("write-frac", 0.2, "fraction of writes")
		pageBytes = flag.Int64("page-bytes", 4096, "transfer size per page")
		seed      = flag.Int64("seed", 1, "workload seed")
		transport = flag.String("transport", "auto", "data plane: tcp, shm, or auto (shm with TCP fallback)")
		compare   = flag.Bool("compare", false, "run the workload over tcp and shm and report both with the ratio")
		jsonOut   = flag.Bool("json", false, "emit a single JSON report on stdout")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		cluster   = flag.Int("cluster", 0, "shard count: spawn an in-process sharded cluster and drive the memcluster client")
		replicas  = flag.Int("replicas", 2, "replicas per shard in -cluster mode")
		chaos     = flag.Bool("chaos", false, "cluster mode: kill one replica mid-run, restart it, and require re-admission")
		sloP99Us  = flag.Float64("slo-p99-us", 0, "p99 latency SLO in µs: report violations and error-budget remaining (0 disables)")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("memnode-bench: cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("memnode-bench: cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *depth < 1 || *batch < 1 {
		log.Fatal("memnode-bench: -depth and -batch must be >= 1")
	}
	var mode int
	switch *transport {
	case "tcp":
		mode = memnode.TransportTCP
	case "shm":
		mode = memnode.TransportShm
	case "auto":
		mode = memnode.TransportAuto
	default:
		log.Fatalf("memnode-bench: -transport must be tcp, shm, or auto, got %q", *transport)
	}

	target := *addr
	if *spawn {
		capMB := *regionMB + 64
		if *compare {
			// Each compare leg registers its own region; regions outlive
			// the leg's connections, so the node must hold both at once.
			capMB += *regionMB
		}
		srv, err := memnode.NewServerOptions("127.0.0.1:0", capMB<<20, memnode.ServerOptions{
			EnableShm: *compare || mode != memnode.TransportTCP,
		})
		if err != nil {
			log.Fatalf("memnode-bench: spawn: %v", err)
		}
		defer srv.Close()
		target = srv.Addr()
		if !*jsonOut {
			fmt.Println("spawned in-process memory node at", target)
		}
	}

	cfg := config{
		workers: *workers, depth: *depth, batch: *batch, ops: *ops,
		writeFrac: *writeFrac, regionMB: *regionMB, pageBytes: *pageBytes, seed: *seed,
		sloP99Us: *sloP99Us,
	}

	if *cluster > 0 {
		r, err := runCluster(cfg, *cluster, *replicas, *chaos, *jsonOut)
		if err != nil {
			log.Fatalf("memnode-bench: cluster: %v", err)
		}
		emit(r, *jsonOut)
		return
	}

	if *compare {
		runCompare(target, cfg, *jsonOut)
		return
	}

	r, err := runLoad(target, mode, cfg)
	if err != nil {
		log.Fatalf("memnode-bench: %v", err)
	}
	emit(r, *jsonOut)
}

// runCompare runs the identical workload over TCP then shm and prints
// both reports with the shm:tcp pages/s ratio — the PR's headline
// metric in one command.
func runCompare(target string, cfg config, jsonOut bool) {
	tcp, err := runLoad(target, memnode.TransportTCP, cfg)
	if err != nil {
		log.Fatalf("memnode-bench: tcp leg: %v", err)
	}
	shm, err := runLoad(target, memnode.TransportShm, cfg)
	if err != nil {
		log.Fatalf("memnode-bench: shm leg: %v (does the server offer shm? -spawn does, `memnode -transport shm` does)", err)
	}
	ratio := shm.PagesPerSec / tcp.PagesPerSec
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			TCP   report  `json:"tcp"`
			Shm   report  `json:"shm"`
			Ratio float64 `json:"shm_over_tcp"`
		}{tcp, shm, ratio}); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("%-10s %12s %10s %10s %11s\n", "transport", "pages/s", "p50(us)", "p99(us)", "allocs/op")
		for _, r := range []report{tcp, shm} {
			fmt.Printf("%-10s %12.0f %10.1f %10.1f %11.1f\n", r.Transport, r.PagesPerSec, r.P50Us, r.P99Us, r.AllocsPerOp)
		}
		fmt.Printf("shm/tcp:   %.2fx pages/s\n", ratio)
	}
	exitOnFailedOps(tcp, shm)
}

// prewarm writes every byte of the freshly registered region once,
// outside the timed window, so the measurement sees steady state
// instead of the kernel's first-touch page faults. Without this the
// early writes of each run fault in the region's backing pages — a
// fixed per-page cost that lands on whichever leg runs first and
// weighs more against a faster transport.
func prewarm(c *memnode.Client, region uint64, size int64) error {
	const chunk = 4 << 20
	buf := make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		n := int64(chunk)
		if size-off < n {
			n = size - off
		}
		if err := c.Write(region, off, buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// runLoad drives one full workload over the given transport and
// returns its report.
func runLoad(target string, mode int, cfg config) (report, error) {
	opts := memnode.DefaultOptions()
	opts.Transport = mode
	if opts.Window < cfg.depth {
		opts.Window = cfg.depth
	}
	setup, err := memnode.DialOptions(target, opts)
	if err != nil {
		return report{}, err
	}
	defer setup.Close()
	region, err := setup.Register(cfg.regionMB << 20)
	if err != nil {
		return report{}, fmt.Errorf("register: %w", err)
	}
	pages := (cfg.regionMB << 20) / cfg.pageBytes
	if err := prewarm(setup, region, cfg.regionMB<<20); err != nil {
		return report{}, fmt.Errorf("prewarm: %w", err)
	}

	ld := newLoad(cfg, region, pages)
	var wg sync.WaitGroup
	var kindMu sync.Mutex // guards kind
	kind := setup.TransportKind()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := memnode.DialOptions(target, opts)
			if err != nil {
				ld.errs.Add(uint64(cfg.ops))
				return
			}
			defer c.Close()
			// Each connection runs `depth` lanes of synchronous ops; the
			// client multiplexes them onto one pipelined stream, so the
			// connection keeps `depth` requests in flight.
			var laneWG sync.WaitGroup
			for d := 0; d < cfg.depth; d++ {
				d := d
				laneOps := cfg.ops / cfg.depth
				if d < cfg.ops%cfg.depth {
					laneOps++
				}
				laneWG.Add(1)
				go func() {
					defer laneWG.Done()
					ld.lane(c, cfg.seed+int64(w)*1009+int64(d), laneOps)
				}()
			}
			laneWG.Wait()
			// The worker connections carry the ops, so the transport they
			// actually negotiated is the one the report should name.
			kindMu.Lock()
			kind = c.TransportKind()
			kindMu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	r, err := ld.report(elapsed)
	if err != nil {
		return report{}, err
	}
	done := float64(r.Ops)
	r.Transport = kind
	r.Depth = cfg.depth
	r.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / done
	return r, nil
}

// target is what a lane drives: the four data verbs a memnode.Client
// and a memcluster.Cluster share.
type target interface {
	Read(handle uint64, offset, length int64) ([]byte, error)
	Write(handle uint64, offset int64, data []byte) error
	ReadVInto(handle uint64, offsets []int64, dst [][]byte) error
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
}

// load is one timed run's workload and what its lanes add up to.
type load struct {
	cfg    config
	region uint64
	pages  int64 // pages in the region

	lat         *stats.ConcurrentHistogram
	sloMu       sync.Mutex
	slo         *stats.SLOTracker // nil without -slo-p99-us
	okOps, errs atomic.Uint64
	// progress, when set, counts every op as it completes, failed ones
	// too (the chaos schedule keys off it).
	progress *atomic.Uint64
}

func newLoad(cfg config, region uint64, pages int64) *load {
	ld := &load{cfg: cfg, region: region, pages: pages, lat: stats.NewConcurrentHistogram()}
	if cfg.sloP99Us > 0 {
		ld.slo = stats.NewSLOTracker(int64(cfg.sloP99Us*1e3), 0.01)
	}
	return ld
}

// lane is the one closed loop of synchronous ops: laneOps of them
// against tg, drawn from seed.
func (ld *load) lane(tg target, seed int64, laneOps int) {
	cfg := ld.cfg
	rng := rand.New(rand.NewSource(seed))
	h := stats.NewHistogram()
	var laneSLO *stats.SLOTracker
	if ld.slo != nil {
		laneSLO = stats.NewSLOTracker(ld.slo.TargetNs, ld.slo.BudgetFrac)
	}
	buf := make([]byte, cfg.pageBytes)
	rng.Read(buf)
	bufs := make([][]byte, cfg.batch)
	for i := range bufs {
		bufs[i] = buf
	}
	// Every batched read of the lane lands in the same pages.
	got := memnode.SplitPages(make([]byte, int64(cfg.batch)*cfg.pageBytes), cfg.pageBytes)
	// Generate the lane's whole workload up front so the
	// timed loop measures the protocol, not the rng.
	writes := make([]bool, laneOps)
	laneOffs := make([][]int64, laneOps)
	for i := range writes {
		writes[i] = rng.Float64() < cfg.writeFrac
		laneOffs[i] = make([]int64, cfg.batch)
		for j := range laneOffs[i] {
			laneOffs[i][j] = rng.Int63n(ld.pages) * cfg.pageBytes
		}
	}
	var ok uint64
	for i := 0; i < laneOps; i++ {
		isWrite := writes[i]
		offs := laneOffs[i]
		var err error
		// Sample latency on every 4th op: two time.Now calls
		// plus a histogram record cost a measurable fraction
		// of a ~µs-scale shm op, and throughput is wall clock
		// over all ops regardless. ~25% of a depth-32 run is
		// still tens of thousands of samples per percentile.
		sampled := i&3 == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		switch {
		case cfg.batch > 1 && isWrite:
			err = tg.WriteV(ld.region, offs, bufs)
		case cfg.batch > 1:
			err = tg.ReadVInto(ld.region, offs, got)
		case isWrite:
			err = tg.Write(ld.region, offs[0], buf)
		default:
			var body []byte
			body, err = tg.Read(ld.region, offs[0], cfg.pageBytes)
			if err == nil {
				memnode.PutBuf(body)
			}
		}
		if ld.progress != nil {
			ld.progress.Add(1)
		}
		if err != nil {
			ld.errs.Add(1)
			continue
		}
		ok++
		if sampled {
			ns := time.Since(t0).Nanoseconds()
			h.Record(ns)
			if laneSLO != nil {
				laneSLO.Record(ns)
			}
		}
	}
	ld.okOps.Add(ok)
	ld.lat.Merge(h)
	if laneSLO != nil {
		ld.sloMu.Lock()
		ld.slo.Merge(laneSLO)
		ld.sloMu.Unlock()
	}
}

// report fills in what every mode reports: counts, throughput, the
// latency spread and the SLO accounting.
func (ld *load) report(elapsed time.Duration) (report, error) {
	cfg := ld.cfg
	h := ld.lat.Snapshot()
	done := ld.okOps.Load()
	if done == 0 || h.Count() == 0 {
		return report{}, fmt.Errorf("no successful operations")
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	r := report{
		Workers:     cfg.workers,
		Batch:       cfg.batch,
		PageBytes:   cfg.pageBytes,
		Ops:         done,
		Pages:       done * uint64(cfg.batch),
		Errors:      ld.errs.Load(),
		ElapsedSec:  elapsed.Seconds(),
		OpsPerSec:   float64(done) / elapsed.Seconds(),
		PagesPerSec: float64(done*uint64(cfg.batch)) / elapsed.Seconds(),
		P50Us:       us(h.P50()),
		P90Us:       us(h.P90()),
		P99Us:       us(h.P99()),
		MaxUs:       us(h.Max()),
	}
	r.MiBPerSec = r.PagesPerSec * float64(cfg.pageBytes) / (1 << 20)
	if ld.slo != nil {
		r.SLOTargetUs = cfg.sloP99Us
		r.SLOViolations = ld.slo.Violations()
		r.SLOSampled = ld.slo.Total()
		r.SLOBudgetRemaining = ld.slo.ErrorBudgetRemaining()
		r.SLOMet = ld.slo.Met()
	}
	return r, nil
}

// emit prints r, as JSON or as text, and then fails the run if any
// operation failed.
func emit(r report, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			log.Fatal(err)
		}
	} else {
		printReport(r)
	}
	exitOnFailedOps(r)
}

// exitOnFailedOps exits 1, once the reports are out, when any operation
// of a run failed: a run that lost an op is a failed run.
func exitOnFailedOps(rs ...report) {
	for _, r := range rs {
		if r.Errors > 0 {
			log.Fatalf("memnode-bench: %s: %d failed operations (%d succeeded)", r.Transport, r.Errors, r.Ops)
		}
	}
}

func printReport(r report) {
	fmt.Printf("transport:  %s\n", r.Transport)
	fmt.Printf("ops:        %d (%d pages, %d errors)\n", r.Ops, r.Pages, r.Errors)
	fmt.Printf("pipeline:   %d conns x depth %d x batch %d\n", r.Workers, r.Depth, r.Batch)
	fmt.Printf("throughput: %.0f ops/s, %.0f pages/s, %.1f MiB/s\n", r.OpsPerSec, r.PagesPerSec, r.MiBPerSec)
	fmt.Printf("latency:    p50=%.0fus p90=%.0fus p99=%.0fus max=%.0fus\n", r.P50Us, r.P90Us, r.P99Us, r.MaxUs)
	fmt.Printf("allocs:     %.1f per op\n", r.AllocsPerOp)
	if r.SLOTargetUs > 0 {
		met := "MET"
		if !r.SLOMet {
			met = "MISSED"
		}
		fmt.Printf("slo:        p99<=%.0fus %s — %d/%d sampled ops over target, %.0f%% error budget left\n",
			r.SLOTargetUs, met, r.SLOViolations, r.SLOSampled, r.SLOBudgetRemaining*100)
	}
	if r.Shards > 0 {
		fmt.Printf("cluster:    %d shards x %d replicas (chaos=%v)\n", r.Shards, r.Replicas, r.Chaos)
		fmt.Printf("resilience: %d failovers, %d readmissions, %d resynced pages, %d degraded writes\n",
			r.Failovers, r.Readmissions, r.ResyncedPages, r.DegradedWrites)
	}
}
