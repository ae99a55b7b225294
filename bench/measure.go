package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
	"mage/internal/upager"
)

// A run is warm-up, then timed slices of the workload with a slice of
// the reference (ref.go) before, between and after them. Clients read
// the current phase once per request (or per KV window of 16) and record
// into that slice's slot; while the reference runs they are parked.
const (
	phaseStop  int32 = -1
	phasePause int32 = -2
	// noTrace is the first traced slice of an untraced run: none.
	noTrace int32 = 1 << 30
)

// phaseClock tells the clients which slice they are in. It starts
// paused: a client parks when its warm-up is done, and the run begins
// when all of them have.
type phaseClock struct {
	cur     atomic.Int32
	clients int32
	parked  atomic.Int32
	mu      sync.Mutex
	paused  bool
	resumed chan struct{} // closed when the current pause ends
}

func newPhaseClock(clients int) *phaseClock {
	c := &phaseClock{clients: int32(clients), paused: true, resumed: make(chan struct{})}
	c.cur.Store(phasePause)
	return c
}

// park is what a client does on reading phasePause: wait for the pause
// to end.
func (c *phaseClock) park() {
	c.mu.Lock()
	ch := c.resumed
	c.mu.Unlock()
	c.parked.Add(1)
	<-ch
	c.parked.Add(-1)
}

// pause ends the current slice and returns once every client has
// finished the request it was on and parked.
func (c *phaseClock) pause(ctx context.Context) error {
	c.mu.Lock()
	c.paused, c.resumed = true, make(chan struct{})
	c.mu.Unlock()
	c.cur.Store(phasePause)
	return c.awaitParked(ctx)
}

func (c *phaseClock) awaitParked(ctx context.Context) error {
	for c.parked.Load() < c.clients {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// resume starts phase ph, a slice number or phaseStop, and lets parked
// clients go.
func (c *phaseClock) resume(ph int32) {
	c.cur.Store(ph)
	c.mu.Lock()
	if c.paused {
		close(c.resumed)
		c.paused = false
	}
	c.mu.Unlock()
}

// opStats is what one client saw in one slice. Latencies go into a
// histogram, not a slice of samples, so the harness's memory stays flat
// however long the run is.
type opStats struct {
	ops    uint64
	failed uint64
	gets   uint64 // KV only
	hits   uint64 // KV only: VALUE replies
	lat    *stats.Histogram
	// genNs is the wall time the harness itself spent on these requests:
	// drawing them, encoding them, recording the ones before. It is
	// reported as harness.gen_ns_per_op so that the harness's cost is
	// never mistaken for the program's; nothing is scaled by it.
	genNs int64
}

func newOpStats() opStats { return opStats{lat: stats.NewHistogram()} }

func newSliceStats(n int) []opStats {
	s := make([]opStats, n)
	for i := range s {
		s[i] = newOpStats()
	}
	return s
}

func (s *opStats) merge(o *opStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.gets += o.gets
	s.hits += o.hits
	s.lat.Merge(o.lat)
	s.genNs += o.genNs
}

// mergeClients folds every client's slice w into one opStats.
func mergeClients(perClient [][]opStats, w int) opStats {
	out := newOpStats()
	for _, c := range perClient {
		out.merge(&c[w])
	}
	return out
}

// snap is the state of every counter the harness can read from outside
// a layer, taken at a segment boundary while the clients are parked.
// Fields a workload has no layer for stay zero.
type snap struct {
	node    memnode.Stats // STAT, summed over the daemon's nodes
	pager   upager.Stats
	mallocs uint64
}

// cpuTimes is the CPU seconds each process role ("harness", "memnode",
// "magecache") has used so far.
type cpuTimes map[string]float64

// slice is one timed slice of the workload: from the moment its clients
// were let go to the moment the last of them parked again.
type slice struct {
	start, end time.Time
	steal      uint64   // readSteal's rise over it, USER_HZ ticks
	cpu        cpuTimes // CPU seconds each role spent in it
	// The reference's rate in the reference slices either side, and the
	// CPU seconds the daemons spent during the one after: they should
	// be idle then, so this reads 0.
	refBefore, refAfter float64
	refDaemonCPU        float64
}

// speed is how fast the box was during the slice, as a share of the
// reference box when quiet.
func (s slice) speed() float64 { return (s.refBefore + s.refAfter) / 2 / refOpsPerS }

// readSteal is the time the hypervisor has taken from the CPU this
// process is confined to, or from all of them when it is not confined.
func readSteal() uint64 {
	text, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0 // no /proc/stat: every slice reads clean
	}
	steal, _ := parseSteal(string(text), pinnedCPU()) // no steal column: likewise
	return steal
}

// parseSteal returns the steal field of /proc/stat's line for one CPU,
// or of the aggregate line when cpu is negative, in USER_HZ ticks.
func parseSteal(text string, cpu int) (uint64, error) {
	name := "cpu"
	if cpu >= 0 {
		name += strconv.Itoa(cpu)
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) >= 9 && f[0] == name {
			return strconv.ParseUint(f[8], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc stat: no steal field for %q", name)
}

// runSlices runs the timed part: segments of segs[i] slices each.
// sample(i) reads the counters before segment i, and sample(len(segs))
// after the last; cpu reads the roles' CPU times. The clients must be
// parked when it is called and are left in phaseStop.
func runSlices(ctx context.Context, clk *phaseClock, ref *refClient, segs []int, cpu func() (cpuTimes, error), sample func(seg int) (snap, error)) ([]snap, []slice, error) {
	defer clk.resume(phaseStop)
	var snaps []snap
	var slices []slice
	refRate, err := ref.measure()
	if err != nil {
		return nil, nil, err
	}
	for seg := 0; seg <= len(segs); seg++ {
		s, err := sample(seg)
		if err != nil {
			return nil, nil, fmt.Errorf("sample counters at segment boundary %d: %w", seg, err)
		}
		snaps = append(snaps, s)
		if seg == len(segs) {
			break
		}
		for i := 0; i < segs[seg]; i++ {
			sl := slice{refBefore: refRate}
			cpu0, err := cpu()
			if err != nil {
				return nil, nil, err
			}
			steal0 := readSteal()
			sl.start = time.Now()
			clk.resume(int32(len(slices)))
			select {
			case <-time.After(sliceLen):
			case <-ctx.Done():
			}
			if err := clk.pause(ctx); err != nil {
				return nil, nil, err
			}
			sl.end = time.Now()
			sl.steal = readSteal() - steal0
			// What the daemons still do once the clients have parked
			// belongs to the slice, not to the reference after it.
			time.Sleep(refSettle)
			cpu1, err := cpu()
			if err != nil {
				return nil, nil, err
			}
			if refRate, err = ref.measure(); err != nil {
				return nil, nil, err
			}
			sl.refAfter = refRate
			cpu2, err := cpu()
			if err != nil {
				return nil, nil, err
			}
			sl.cpu = make(cpuTimes)
			for role := range cpu1 {
				sl.cpu[role] = cpu1[role] - cpu0[role]
				if role != "harness" {
					sl.refDaemonCPU += cpu2[role] - cpu1[role]
				}
			}
			slices = append(slices, sl)
		}
	}
	return snaps, slices, nil
}

// setupClock times the set-up in stages. Set-up runs on the same box as
// the slices, so each stage is restated the same way: at the speed the
// reference measured before and after it. The reference's own time is
// not counted.
type setupClock struct {
	workload string
	ref      *refClient
	from     time.Time
	refRate  float64
	seconds  float64 // the stages so far, at the reference box speed
	raw      float64 // the same, as measured
}

func startSetup(workload string, ref *refClient) (*setupClock, error) {
	rate, err := ref.measure()
	if err != nil {
		return nil, err
	}
	return &setupClock{workload: workload, ref: ref, from: time.Now(), refRate: rate}, nil
}

// stage closes the stage that began when the last one ended.
func (s *setupClock) stage() error {
	took := time.Since(s.from).Seconds()
	rate, err := s.ref.measure()
	if err != nil {
		return err
	}
	s.seconds += took * restate(s.workload, (s.refRate+rate)/2/refOpsPerS)
	s.raw += took
	s.refRate, s.from = rate, time.Now()
	return nil
}

// timing is a run's end-to-end view.
type timing struct {
	// The median slice, restated at the reference box speed.
	opsPerS, p50us, p90us, p99us float64
	rawOpsPerS                   float64  // the median slice as measured
	speed                        float64  // the median slice's box speed
	genNs                        float64  // mean harness time per request
	total                        opStats  // all slices merged: counts are totals
	cpu                          cpuTimes // CPU seconds of each role, all slices
	refDaemonFrac                float64  // share of the reference slices the daemons were busy
	slices, clean                int      // slices covered, and those no vCPU time was stolen from
	stealFrac                    float64  // share of the CPUs' time the hypervisor took
}

// summarize covers slices [lo, hi): each slice yields its own rate and
// percentiles, restated from the box speed its two reference slices
// measured (a rate is divided by restate's factor, a latency
// multiplied), and the run reports the median slice.
//
// Why slices this short: the reference box is a two-vCPU VM with
// neighbours, and it runs the same code up to 1.7x slower for anything
// from a few hundred milliseconds to minutes at a time. A percentile
// over the whole run is set by the worst of those phases; the median
// over many short slices is not, and a reference slice 250 ms away has
// seen the same box. README.md has the numbers.
//
// Slices during which the hypervisor took more than maxStealTicks of
// vCPU time away are left out of the median when enough others remain.
func summarize(workload string, perClient [][]opStats, slices []slice, lo, hi int) timing {
	type view struct {
		rate, raw, speed, p50, p90, p99 float64
		ops                             uint64
		genNs                           int64
	}
	var every, clean []view
	tm := timing{total: newOpStats(), cpu: make(cpuTimes), slices: hi - lo}
	var wall, refWall, refBusy float64
	var steal uint64
	for w := lo; w < hi; w++ {
		sl := slices[w]
		m := mergeClients(perClient, w)
		tm.total.merge(&m)
		for role, s := range sl.cpu {
			tm.cpu[role] += s
		}
		wall += sl.end.Sub(sl.start).Seconds()
		refWall += refLen.Seconds()
		refBusy += sl.refDaemonCPU
		steal += sl.steal
		by := restate(workload, sl.speed())
		raw := float64(m.ops) / sl.end.Sub(sl.start).Seconds()
		v := view{
			rate: raw / by, raw: raw, speed: sl.speed(),
			p50: float64(m.lat.P50()) / 1e3 * by,
			p90: float64(m.lat.P90()) / 1e3 * by,
			p99: float64(m.lat.P99()) / 1e3 * by,
			ops: m.ops, genNs: m.genNs,
		}
		every = append(every, v)
		if sl.steal <= maxStealTicks {
			clean = append(clean, v)
		}
	}
	tm.clean = len(clean)
	use := every
	if tm.clean*4 >= tm.slices {
		use = clean
	}
	pick := func(f func(view) float64) float64 {
		xs := make([]float64, len(use))
		for i, v := range use {
			xs[i] = f(v)
		}
		return median(xs)
	}
	tm.opsPerS = pick(func(v view) float64 { return v.rate })
	tm.rawOpsPerS = pick(func(v view) float64 { return v.raw })
	tm.speed = pick(func(v view) float64 { return v.speed })
	tm.p50us = pick(func(v view) float64 { return v.p50 })
	tm.p90us = pick(func(v view) float64 { return v.p90 })
	tm.p99us = pick(func(v view) float64 { return v.p99 })
	var ops uint64
	var genNs int64
	for _, v := range use {
		ops += v.ops
		genNs += v.genNs
	}
	tm.genNs = perOp(float64(genNs), ops)
	if wall > 0 {
		tm.stealFrac = float64(steal) / clkTck / (wall * float64(runtime.NumCPU()))
		tm.refDaemonFrac = refBusy / refWall
	}
	return tm
}

// maxStealTicks is the steal a slice may see and still count as clean:
// one 10 ms tick in 250 ms, which is what an idle neighbourhood
// produces on the reference box.
const maxStealTicks = 1

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(xs,
// n=4) gives (its default "exclusive" method), which is what the
// driver's spread check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// perOp divides a counter delta by the ops it was spent on.
func perOp(delta float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return delta / float64(ops)
}

func ratioOf(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// /proc readers. The daemons are measured from outside: CPU from
// /proc/<pid>/stat, peak memory from /proc/<pid>/status.

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux port Go supports; reading it needs sysconf.
const clkTck = 100

// parseProcStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The command name (field 2) may itself hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(text string) (float64, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clkTck, nil
}

// parseVmHWM returns the peak resident set in MiB from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: odd VmHWM line %q", line)
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// selfCPU is the harness's own user+system time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// statDelta is the far-memory traffic between two STAT snapshots: what
// the pager's faults and writebacks look like at the memnode boundary.
type statDelta struct {
	reads, writtenPages, bytes uint64
}

func subStat(a, b memnode.Stats) statDelta {
	return statDelta{
		reads:        b.ReadOps - a.ReadOps,
		writtenPages: b.WriteOps - a.WriteOps,
		bytes:        (b.BytesRead - a.BytesRead) + (b.BytesWrite - a.BytesWrite),
	}
}

func addStat(a, b memnode.Stats) memnode.Stats {
	a.Regions += b.Regions
	a.UsedBytes += b.UsedBytes
	a.ReadOps += b.ReadOps
	a.WriteOps += b.WriteOps
	a.BytesRead += b.BytesRead
	a.BytesWrite += b.BytesWrite
	return a
}

// The helpers below put what every real-stack workload reports the same
// way into its result.

// setTiming records the end-to-end timings: tm is the untraced slices'
// view, all covers every slice.
func (r *result) setTiming(setup *setupClock, tm, all timing, noun string) {
	r.set("setup_s", setup.seconds)
	r.Notes["setup_s_as_measured"] = fmt.Sprintf("%.3f", setup.raw)
	r.set("ops_per_s", tm.opsPerS)
	r.set("p50_us", tm.p50us)
	r.set("p90_us", tm.p90us)
	r.set("p99_us", tm.p99us)
	r.set("harness.raw_ops_per_s", tm.rawOpsPerS)
	r.set("harness.box_speed", tm.speed)
	r.set("harness.ref_daemon_busy_frac", all.refDaemonFrac)
	r.set("harness.gen_ns_per_op", tm.genNs)
	r.set("harness.steal_frac", tm.stealFrac)
	r.Notes["slices"] = fmt.Sprintf("%d of %d slices free of steal", tm.clean, tm.slices)
	r.Notes["p99.9_us"] = fmt.Sprintf("%.1f as measured, over %d %s", float64(all.total.lat.P999())/1e3, all.total.lat.Count(), noun)
}

// setCounters records the per-op costs of the timed part: each role's
// CPU over the slices, and the far-memory traffic between the first and
// last snapshot.
func (r *result) setCounters(far statDelta, all timing, buildS float64) {
	ops := all.total.ops
	for role, s := range all.cpu {
		r.set(role+".cpu_us_per_op", perOp(s*1e6, ops))
	}
	r.set("memnode.reads_per_op", perOp(float64(far.reads), ops))
	r.set("memnode.written_pages_per_op", perOp(float64(far.writtenPages), ops))
	r.set("memnode.bytes_per_op", perOp(float64(far.bytes), ops))
	r.set("harness.build_s", buildS)
}
