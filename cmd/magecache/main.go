package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/upager"
)

type config struct {
	mode     string
	listen   string
	backends string
	spawn    bool
	replicas int
	nodeMB   int64

	keys     int64
	ratio    int
	workers  int
	ops      int
	theta    float64
	setFrac  float64
	sloP99Us float64
	seed     int64
	requireS bool
}

func parseFlags() config {
	var cfg config
	flag.StringVar(&cfg.mode, "mode", "bench", "bench (closed-loop load generator) or serve (TCP front end)")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:11311", "serve mode: listen address")
	flag.StringVar(&cfg.backends, "memnode", "", "backing store: comma-separated shards, '/'-separated replicas (one plain address = single memnode)")
	flag.BoolVar(&cfg.spawn, "spawn", false, "spawn in-process memnode server(s) instead of dialing -memnode")
	flag.IntVar(&cfg.replicas, "spawn-replicas", 1, "replicas per spawned shard (>1 uses the cluster client)")
	flag.Int64Var(&cfg.nodeMB, "node-mb", 512, "spawned memnode capacity (MiB)")
	flag.Int64Var(&cfg.keys, "keys", 1<<16, "key-space size")
	flag.IntVar(&cfg.ratio, "ratio", 8, "remote:local page ratio of the value heap")
	flag.IntVar(&cfg.workers, "workers", 8, "bench mode: closed-loop workers")
	flag.IntVar(&cfg.ops, "ops", 240000, "bench mode: total ops across workers")
	flag.Float64Var(&cfg.theta, "theta", 0.99, "steady-phase Zipfian skew")
	flag.Float64Var(&cfg.setFrac, "set-frac", 0.1, "bench mode: extra SET fraction (dirties pages)")
	flag.Float64Var(&cfg.sloP99Us, "slo-p99-us", 0, "SLO: target p99 in microseconds (0 = report only)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.BoolVar(&cfg.requireS, "require-slo", false, "bench mode: exit 1 when the SLO is missed")
	flag.Parse()
	return cfg
}

// heapPagesFor sizes the value heap so the worst case (every key in the
// largest class the value model uses, 1024 bytes = 4 slots/page) fits,
// plus one carve page per class.
func heapPagesFor(keys int64) uint64 {
	return uint64(keys/4 + keys/64 + int64(len(classSizes)) + 8)
}

// buildBacking dials or spawns the far-memory store. The returned
// cleanup closes what was created.
func buildBacking(cfg config) (upager.Backing, func(), error) {
	if cfg.spawn {
		capacity := cfg.nodeMB << 20
		if cfg.replicas <= 1 {
			srv, err := memnode.NewServer("127.0.0.1:0", capacity)
			if err != nil {
				return nil, nil, err
			}
			c, err := memnode.Dial(srv.Addr())
			if err != nil {
				srv.Close()
				return nil, nil, err
			}
			return c, func() { c.Close(); srv.Close() }, nil
		}
		var srvs []*memnode.Server
		addrs := make([]string, 0, cfg.replicas)
		for i := 0; i < cfg.replicas; i++ {
			srv, err := memnode.NewServer("127.0.0.1:0", capacity)
			if err != nil {
				for _, s := range srvs {
					s.Close()
				}
				return nil, nil, err
			}
			srvs = append(srvs, srv)
			addrs = append(addrs, srv.Addr())
		}
		cl, err := memcluster.New([][]string{addrs}, memcluster.Options{})
		if err != nil {
			for _, s := range srvs {
				s.Close()
			}
			return nil, nil, err
		}
		return cl, func() {
			cl.Close()
			for _, s := range srvs {
				s.Close()
			}
		}, nil
	}
	if cfg.backends == "" {
		return nil, nil, fmt.Errorf("need -memnode or -spawn")
	}
	shards := strings.Split(cfg.backends, ",")
	if len(shards) == 1 && !strings.Contains(shards[0], "/") {
		c, err := memnode.Dial(shards[0])
		if err != nil {
			return nil, nil, err
		}
		return c, func() { c.Close() }, nil
	}
	addrs := make([][]string, len(shards))
	for i, s := range shards {
		addrs[i] = strings.Split(s, "/")
	}
	cl, err := memcluster.New(addrs, memcluster.Options{})
	if err != nil {
		return nil, nil, err
	}
	return cl, func() { cl.Close() }, nil
}

func run(cfg config) error {
	backing, cleanup, err := buildBacking(cfg)
	if err != nil {
		return err
	}
	defer cleanup()

	heapPages := heapPagesFor(cfg.keys)
	frames := int(heapPages) / cfg.ratio
	if frames < 64 {
		frames = 64
	}
	cache, err := NewCache(backing, heapPages, frames)
	if err != nil {
		return err
	}
	defer cache.Close()
	fmt.Printf("magecache: heap %d pages (%.1f MiB) over %d local frames (remote:local %d:1)\n",
		heapPages, float64(heapPages)*pageBytes/(1<<20), frames, int(heapPages)/frames)

	switch cfg.mode {
	case "serve":
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return err
		}
		fmt.Printf("magecache: serving on %s\n", ln.Addr())
		return serveCache(ln, cache)
	case "bench":
		r := runLoad(cache, loadConfig{
			keys:     cfg.keys,
			workers:  cfg.workers,
			totalOps: cfg.ops,
			theta:    cfg.theta,
			setFrac:  cfg.setFrac,
			sloP99Us: cfg.sloP99Us,
			seed:     cfg.seed,
		})
		printLoadReport(r, cache, cfg.sloP99Us)
		if peak, ok := peakRSS(); ok {
			note := ""
			if cfg.spawn {
				note = " (the spawned memnode's included)"
			}
			fmt.Printf("magecache: local memory %.1f MiB peak for %.1f MiB of frames and %.1f MiB of index%s\n",
				float64(peak)/(1<<20), float64(frames)*pageBytes/(1<<20), float64(cache.Stats().IndexBytes)/(1<<20), note)
		}
		if r.Fails > 0 {
			return fmt.Errorf("%d ops failed", r.Fails)
		}
		if cfg.requireS && cfg.sloP99Us > 0 && !r.SLOMet {
			return fmt.Errorf("SLO missed: p99 %.0fus > %.0fus target", r.P99Us, cfg.sloP99Us)
		}
		return nil
	default:
		return fmt.Errorf("unknown -mode %q", cfg.mode)
	}
}

// peakRSS is the process's peak resident set so far, the kernel's VmHWM:
// the local memory the frame budget is meant to bound. ok is false where
// there is no /proc/self/status (off Linux).
func peakRSS() (bytes int64, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	return parseVmHWM(string(status))
}

// parseVmHWM reads the "VmHWM:  1234 kB" line of a /proc status file.
func parseVmHWM(status string) (bytes int64, ok bool) {
	for _, line := range strings.Split(status, "\n") {
		v, found := strings.CutPrefix(line, "VmHWM:")
		if !found {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, false
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		return kb << 10, err == nil
	}
	return 0, false
}

func main() {
	if err := run(parseFlags()); err != nil {
		fmt.Fprintf(os.Stderr, "magecache: %v\n", err)
		os.Exit(1)
	}
}
