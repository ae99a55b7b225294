package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp records the box and the load model beside every number, so a
// snapshot can no longer hide that it came from two cores.
type stamp struct {
	Nproc int `json:"nproc"` // of the box
	// PinnedCPU is the one CPU the harness and its daemons are confined
	// to (pin.go), -1 for a process that is not: the parent of a set of
	// runs, whose children confine themselves.
	PinnedCPU  int    `json:"pinned_cpu"`
	GoMaxProcs string `json:"gomaxprocs"` // of the harness and, by inheritance, each daemon
	GoRuntime  string `json:"go_runtime"` // the harness's own
	GoVersion  string `json:"go_version"` // the toolchain that built the daemons
	GitRev     string `json:"git_rev"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	// Workloads and Runs are what was asked for: -compare holds a set
	// that has fewer results against them.
	Workloads []string `json:"workloads"`
	Runs      int      `json:"runs"`
	Seconds   int      `json:"seconds"`
	Clients   int      `json:"clients"`
	KVWindow  int      `json:"kv_window"`
	SliceMs   int      `json:"slice_ms"`
	// RefMs and RefOpsPerS are the reference slice after each timed
	// slice and the reference rate timings are restated to (ref.go).
	RefMs      int     `json:"ref_ms"`
	RefOpsPerS float64 `json:"ref_ops_per_s"`
	// Sensitivity is each workload's exponent on the box speed (spec.go).
	Sensitivity map[string]float64 `json:"sensitivity"`
	// StreamHash digests the first 4096 requests of each client of each
	// generated stream; equal hashes mean equal inputs.
	StreamHash map[string]string `json:"stream_hash"`
}

func cmdLine(ctx context.Context, dir, name string, args ...string) string {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func takeStamp(ctx context.Context, root string, seed int64, workloads []string, runs, seconds int) stamp {
	s := stamp{
		PinnedCPU:   pinnedCPU(),
		GoRuntime:   runtime.Version(),
		GoVersion:   cmdLine(ctx, root, "go", "version"),
		Kernel:      "unknown",
		CPUModel:    "unknown",
		Seed:        seed,
		Workloads:   workloads,
		Runs:        runs,
		Seconds:     seconds,
		Clients:     clients,
		KVWindow:    kvWindow,
		SliceMs:     int(sliceLen.Milliseconds()),
		RefMs:       int(refLen.Milliseconds()),
		RefOpsPerS:  refOpsPerS,
		Sensitivity: make(map[string]float64),
		StreamHash: map[string]string{
			"kv":                fmt.Sprintf("%016x", streamHash(seed, kvKeys, kvSetFrac, 4096)),
			"page-shm-write":    fmt.Sprintf("%016x", streamHash(seed, pagePages, 0.50, 4096)),
			"page-cluster-read": fmt.Sprintf("%016x", streamHash(seed, pagePages, 0.20, 4096)),
		},
	}
	for _, w := range workloadSpecs {
		s.Sensitivity[w.name] = w.sensitivity
	}
	// The daemons inherit the harness's environment, so they resolve
	// GOMAXPROCS exactly as the harness does.
	s.GoMaxProcs = fmt.Sprintf("%d (env GOMAXPROCS=%q)", runtime.GOMAXPROCS(0), os.Getenv("GOMAXPROCS"))
	// A driver's checkout is not a git repository; the stamp says so
	// rather than failing.
	s.GitRev = cmdLine(ctx, root, "git", "rev-parse", "HEAD")
	if s.GitRev != "unknown" && cmdLine(ctx, root, "git", "status", "--porcelain") != "" {
		s.GitRev += "+dirty"
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		// runtime.NumCPU counts the CPUs this process may run on, which
		// is one once it is confined; the box's own count is here.
		for _, line := range strings.Split(string(b), "\n") {
			switch k, v, _ := strings.Cut(line, ":"); strings.TrimSpace(k) {
			case "processor":
				s.Nproc++
			case "model name":
				s.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	return s
}

func (s stamp) print() {
	fmt.Printf("# box: nproc=%d pinned_cpu=%d GOMAXPROCS=%s cpu=%q kernel=%s\n", s.Nproc, s.PinnedCPU, s.GoMaxProcs, s.CPUModel, s.Kernel)
	fmt.Printf("# build: %s (harness %s) git=%s\n", s.GoVersion, s.GoRuntime, s.GitRev)
	fmt.Printf("# load: workloads=%v runs=%d seed=%d seconds=%d clients=%d kv_window=%d slice_ms=%d ref_ms=%d ref_ops_per_s=%.0f sensitivity=%v streams=%v\n",
		s.Workloads, s.Runs, s.Seed, s.Seconds, s.Clients, s.KVWindow, s.SliceMs, s.RefMs, s.RefOpsPerS, s.Sensitivity, s.StreamHash)
}
