// Command bench is the repository's latency-ladder benchmark: five
// named workloads, from magecache's socket down to the memnode ring,
// plus the DES grid. See README.md beside this file.
//
//	go run -C bench .                          every workload, untraced
//	go run -C bench . -trace 1                 ... each followed by its traced run
//	go run -C bench . -workload kv-far -seed 7 one workload, in this process
//	go run -C bench . -runs 10 -out a.json     a set of runs, for -compare
//	go run -C bench . -compare a.json b.json   verdict per workload x metric
//
// Run with -workload it prints, as the last line of standard output,
// the JSON object BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// benchEnv is what every workload needs from the checkout.
type benchEnv struct {
	bins   map[string]string
	buildS float64
}

type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// plan is how a run's timed slices split. An untraced run is one
// segment; a traced run is an untraced half then a traced half, so the
// tracing overhead is read off one run.
type plan struct {
	segs       []int // slices per segment, for runSlices
	untraced   int   // slices [0, untraced) are untraced
	all        int   // slices in the run
	tracedFrom int32 // first traced slice, noTrace when there is none
}

// A run of -seconds s holds as many slices as fit with the reference
// slice that follows each.
func (o runOpts) plan() plan {
	n := int(o.seconds / (sliceLen + refSettle + refLen))
	if o.traced {
		return plan{segs: []int{n / 2, n - n/2}, untraced: n / 2, all: n, tracedFrom: int32(n / 2)}
	}
	return plan{segs: []int{n}, untraced: n, all: n, tracedFrom: noTrace}
}

// runLimit bounds one workload run; the driver allows 180 s.
const runLimit = 170 * time.Second

// outFile is what -out writes and -compare reads.
type outFile struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload  = flag.String("workload", "all", "one of the five workload names, or all (each in its own child process)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds   = flag.Int("seconds", 14, "timed seconds per run: slices of 250 ms, each followed by 50 ms of the reference")
		traceFlag = flag.Int("trace", 0, "1: traced run (per-layer metrics, Chrome trace); with -workload all or -runs, each untraced run is followed by its traced one")
		out       = flag.String("out", "", "write the stamp and every run's result to this JSON file")
		runs      = flag.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on any worse")
		refServer = flag.Bool("refserver", false, "serve the reference (ref.go); the harness starts itself this way")
	)
	flag.Parse()
	if *refServer {
		return refServe()
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *workload != "all" && !isWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || *runs < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1, -trace 0 or 1")
		return 2
	}
	single := *workload != "all" && *runs == 1
	if single {
		// Every workload runs on one CPU (pin.go).
		if err := confineToOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.name)
		}
	}
	file := outFile{Stamp: takeStamp(ctx, root, *seed, names, *runs, *seconds)}
	file.Stamp.print()
	code := 0
	if single {
		res, err := runOne(ctx, root, *workload, runOpts{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			traced: *traceFlag == 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		printResult(res)
		if !res.Correct {
			code = 1
		}
		defer func() {
			line, _ := json.Marshal(res.driverLine()) // plain data: cannot fail
			fmt.Println(string(line))
		}()
	} else {
		file.Runs, err = runChildren(ctx, names, *seed, *seconds, *runs, *traceFlag == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
		for _, r := range file.Runs {
			if !r.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(file, "", " ") // plain data: cannot fail
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runOne builds the daemons and runs one workload in this process.
func runOne(ctx context.Context, root, workload string, o runOpts) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	// The last resort if a layer hangs where no context reaches: exit,
	// and the kernel kills the daemons (Pdeathsig).
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: still running after %v, giving up\n", workload, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	env := &benchEnv{}
	if workload != "sim-grid" {
		var err error
		if env.bins, env.buildS, err = buildDaemons(ctx, root); err != nil {
			return nil, err
		}
	}
	switch workload {
	case "kv-local":
		return runKV(ctx, env, workload, 1, o)
	case "kv-far":
		return runKV(ctx, env, workload, 8, o)
	case "page-shm-write", "page-cluster-read":
		return runPage(ctx, env, workload, o)
	case "sim-grid":
		return runSimGrid(ctx, env, o)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// runChildren runs each requested workload in a child process of its
// own, so one workload's heap, GC state and peak RSS never colour the
// next one's, and collects their results.
func runChildren(ctx context.Context, names []string, seed int64, seconds, runs int, traced bool) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(workDir, "all")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var results []*result
	var firstErr error
	for r := 0; r < runs; r++ {
		for _, name := range names {
			modes := []int{0}
			if traced && name != "sim-grid" { // the DES has no traced variant
				modes = []int{0, 1}
			}
			for _, mode := range modes {
				if err := ctx.Err(); err != nil {
					return results, err
				}
				outPath := filepath.Join(tmp, "run.json")
				cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed+int64(r)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode), "-out", outPath)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				// An interrupted parent takes its children, and through
				// them their daemons, with it.
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
				runErr := cmd.Run()
				var f outFile
				if b, err := os.ReadFile(outPath); err == nil && json.Unmarshal(b, &f) == nil {
					results = append(results, f.Runs...)
				}
				os.Remove(outPath)
				var exit *exec.ExitError
				if runErr != nil && !errors.As(runErr, &exit) {
					return results, runErr
				}
				if runErr != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s (seed %d, trace %d): %w", name, seed+int64(r), mode, runErr)
				}
			}
		}
	}
	return results, firstErr
}

// printResult prints every metric the run produced, by name, with its
// unit: end-to-end first, then the layers in spec order.
func printResult(r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s (seed %d, %s): correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed)
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if m, ok := r.Metrics[s.name]; ok {
				fmt.Printf("%-34s %14.4f %s\n", s.name, m.Value, m.Unit)
			}
		}
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %s\n", k, r.Notes[k])
	}
	if v := r.voided(); len(v) > 0 {
		fmt.Printf("# VOID: robustness counters moved: %v\n", v)
	}
}
