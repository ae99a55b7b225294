package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
	"mage/internal/upager"
)

// These tests spawn no daemon and build no binary: they check the
// harness's own arithmetic and parsing, which every reported number
// rests on. checkers_test.go holds the correctness self-test.

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a := streamHash(1, kvKeys, kvSetFrac, 2048)
	if b := streamHash(1, kvKeys, kvSetFrac, 2048); a != b {
		t.Fatalf("same seed, different streams: %x vs %x", a, b)
	}
	if b := streamHash(2, kvKeys, kvSetFrac, 2048); a == b {
		t.Fatalf("seeds 1 and 2 gave the same stream %x", a)
	}
	if b := streamHash(1, kvKeys, 0.5, 2048); a == b {
		t.Fatalf("write shares 0.1 and 0.5 gave the same stream %x", a)
	}
	// The two clients of one run must not replay each other.
	g0, g1 := newOpGen(1, 0, kvKeys, kvSetFrac), newOpGen(1, 1, kvKeys, kvSetFrac)
	same := 0
	for i := 0; i < 1000; i++ {
		if g0.next() == g1.next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("clients 0 and 1 agree on %d of 1000 requests", same)
	}
}

func TestWriteShare(t *testing.T) {
	g := newOpGen(3, 0, pagePages, 0.2)
	writes := 0
	for i := 0; i < 20000; i++ {
		o := g.next()
		if o.id >= pagePages {
			t.Fatalf("page %d out of range", o.id)
		}
		if o.write {
			writes++
		}
	}
	if writes < 3600 || writes > 4400 {
		t.Fatalf("%d writes in 20000 at share 0.2", writes)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

// mkSlices is n one-second slices on a box at reference speed.
func mkSlices(n int) []slice {
	t0 := time.Unix(100, 0)
	sl := make([]slice, n)
	for i := range sl {
		sl[i] = slice{
			start: t0.Add(time.Duration(i) * time.Second), end: t0.Add(time.Duration(i+1) * time.Second),
			refBefore: refOpsPerS, refAfter: refOpsPerS,
		}
	}
	return sl
}

// A run reports its median slice: slices the box slowed down must move
// neither the rate nor the latencies, while counts stay totals.
func TestSummarizeReportsTheMedianSlice(t *testing.T) {
	const n = 9
	slices := mkSlices(n)
	perClient := [][]opStats{newSliceStats(n), newSliceStats(n)}
	fill := func(w int, opsEach uint64, latNs int64) {
		for c := range perClient {
			for i := uint64(0); i < opsEach; i++ {
				perClient[c][w].ops++
				perClient[c][w].lat.Record(latNs)
			}
		}
	}
	for w := 0; w < n; w++ {
		if w%3 == 2 { // the box hiccuped
			fill(w, 200, 50_000)
		} else {
			fill(w, 500, 10_000)
		}
		slices[w].cpu = cpuTimes{"memnode": 0.25}
	}
	tm := summarize("kv-far", perClient, slices, 0, n)
	if tm.opsPerS != 1000 || tm.rawOpsPerS != 1000 || tm.speed != 1 {
		t.Errorf("ops_per_s = %v (raw %v, speed %v), want the median slice's 1000 at speed 1", tm.opsPerS, tm.rawOpsPerS, tm.speed)
	}
	if math.Abs(tm.p50us-10) > 0.2 || math.Abs(tm.p90us-10) > 0.2 || math.Abs(tm.p99us-10) > 0.2 {
		t.Errorf("p50_us, p90_us, p99_us = %v, %v, %v, want ~10", tm.p50us, tm.p90us, tm.p99us)
	}
	if tm.total.ops != 6*1000+3*400 {
		t.Errorf("total ops = %d: counts are totals, not medians", tm.total.ops)
	}
	if tm.cpu["memnode"] != 0.25*n {
		t.Errorf("memnode CPU = %v s, want the slices' sum", tm.cpu["memnode"])
	}
	if one := summarize("kv-far", perClient, slices, 2, 3); one.opsPerS != 400 {
		t.Errorf("slice [2,3) ops_per_s = %v, want 400", one.opsPerS)
	}
}

// A slice is restated at the speed the reference measured either side
// of it: a box at half speed halves the rate and doubles the latency,
// and the run must report neither.
func TestSummarizeRestatesAtTheReferenceSpeed(t *testing.T) {
	const n = 5
	slices := mkSlices(n)
	perClient := [][]opStats{newSliceStats(n)}
	for w := 0; w < n; w++ {
		ops, lat := uint64(1000), int64(10_000)
		if w >= 1 { // the box went to half speed after the first slice
			ops, lat = 500, 20_000
			slices[w].refBefore, slices[w].refAfter = refOpsPerS/2, refOpsPerS/2
		}
		for i := uint64(0); i < ops; i++ {
			perClient[0][w].ops++
			perClient[0][w].lat.Record(lat)
		}
		slices[w].refDaemonCPU = refLen.Seconds() / 10
	}
	// The slice during which the speed changed is judged by the mean of
	// its two reference slices.
	slices[1].refBefore = refOpsPerS
	if got := slices[1].speed(); got != 0.75 {
		t.Errorf("speed between a reference slice at 1 and one at 0.5 = %v", got)
	}
	tm := summarize("kv-far", perClient, slices, 0, n)
	if tm.opsPerS != 1000 || tm.rawOpsPerS != 500 || tm.speed != 0.5 {
		t.Errorf("ops_per_s = %v, raw %v, speed %v; want 1000, 500, 0.5", tm.opsPerS, tm.rawOpsPerS, tm.speed)
	}
	if math.Abs(tm.p50us-10) > 0.2 {
		t.Errorf("p50_us = %v, want ~10", tm.p50us)
	}
	if math.Abs(tm.refDaemonFrac-0.1) > 1e-9 {
		t.Errorf("daemons busy for %v of the reference slices, want 0.1", tm.refDaemonFrac)
	}
	// page-shm-write follows the reference with sensitivity 0.5: at a
	// quarter of the speed it is taken to run at half its own.
	for w := 1; w < n; w++ {
		slices[w].refBefore, slices[w].refAfter = refOpsPerS/4, refOpsPerS/4
	}
	if tm := summarize("page-shm-write", perClient, slices, 0, n); tm.opsPerS != 1000 || tm.speed != 0.25 {
		t.Errorf("sensitivity 0.5: ops_per_s = %v at speed %v; want 1000 at 0.25", tm.opsPerS, tm.speed)
	}
}

// Slices the hypervisor stole vCPU time from are left out, unless that
// leaves too few to take a median of.
func TestSummarizeLeavesOutStolenSlices(t *testing.T) {
	const n = 8
	perClient := [][]opStats{newSliceStats(n)}
	mk := func(stolen ...int) []slice {
		sl := mkSlices(n)
		for _, w := range stolen {
			sl[w].steal = 20
		}
		return sl
	}
	for w := 0; w < n; w++ {
		ops := uint64(1000)
		if w >= 3 { // five slow slices of eight: the median alone would report them
			ops = 100
		}
		perClient[0][w].ops = ops
	}
	if tm := summarize("kv-far", perClient, mk(3, 4, 5, 6, 7), 0, n); tm.opsPerS != 1000 || tm.clean != 3 {
		t.Errorf("stolen slices counted: ops_per_s %v, %d clean", tm.opsPerS, tm.clean)
	}
	if tm := summarize("kv-far", perClient, mk(), 0, n); tm.opsPerS != 100 || tm.clean != n || tm.stealFrac != 0 {
		t.Errorf("no steal: ops_per_s %v, %d clean, steal %v", tm.opsPerS, tm.clean, tm.stealFrac)
	}
	// One clean slice of eight is not a sample: fall back to all.
	if tm := summarize("kv-far", perClient, mk(1, 2, 3, 4, 5, 6, 7), 0, n); tm.opsPerS != 100 {
		t.Errorf("almost all stolen: ops_per_s %v, want the median of every slice", tm.opsPerS)
	}
}

func TestParseSteal(t *testing.T) {
	text := "cpu  682815 0 375672 812793 3292 0 104580 84254 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\ncpu1 1 2 3 4 5 6 7 11 9 10\n"
	if got, err := parseSteal(text, -1); err != nil || got != 84254 {
		t.Errorf("steal of the box = %v, %v", got, err)
	}
	if got, err := parseSteal(text, 1); err != nil || got != 11 {
		t.Errorf("steal of cpu1 = %v, %v", got, err)
	}
	if _, err := parseSteal("cpu 1 2 3\n", -1); err == nil {
		t.Error("short cpu line accepted")
	}
	if _, err := parseSteal(text, 2); err == nil {
		t.Error("a CPU the box does not have accepted")
	}
}

// The clock starts paused; every client parks, a resume lets all of
// them go, and a pause returns only once they are all parked again.
func TestPhaseClockParksEveryClient(t *testing.T) {
	const n = 3
	clk := newPhaseClock(n)
	var ran [n]atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				switch ph := clk.cur.Load(); ph {
				case phaseStop:
					return
				case phasePause:
					clk.park()
				default:
					ran[i].Store(ph + 1)
					runtime.Gosched()
				}
			}
		}()
	}
	ctx := context.Background()
	if err := clk.awaitParked(ctx); err != nil {
		t.Fatal(err)
	}
	for slice := int32(0); slice < 3; slice++ {
		clk.resume(slice)
		for i := range ran {
			for ran[i].Load() != slice+1 {
				runtime.Gosched()
			}
		}
		if err := clk.pause(ctx); err != nil {
			t.Fatal(err)
		}
		if got := clk.parked.Load(); got != n {
			t.Fatalf("pause returned with %d of %d clients parked", got, n)
		}
	}
	clk.resume(phaseStop)
	clk.resume(phaseStop) // a second resume of one pause is harmless
	wg.Wait()

	// A pause no client answers ends with the context.
	gone, cancel := context.WithCancelCause(ctx)
	cancel(errors.New("client died"))
	if err := newPhaseClock(1).awaitParked(gone); err == nil || err.Error() != "client died" {
		t.Errorf("awaitParked with a dead client = %v", err)
	}
}

// The reference's two ends must agree on the size of a window's
// replies, or a measurement would hang; in-process here, over a pipe.
func TestReferenceExchangesWholeWindows(t *testing.T) {
	here, there := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		refAnswer(there)
	}()
	c := newRefClient(here)
	rate, err := c.measure()
	if err != nil || rate <= 0 {
		t.Fatalf("reference rate %v, %v", rate, err)
	}
	if got := bytes.Count(c.reply, []byte{'\n'}); got != refWindow {
		t.Errorf("a window's replies hold %d lines, want %d", got, refWindow)
	}
	here.Close()
	<-done
}

func TestHistogramPercentiles(t *testing.T) {
	h := stats.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i) * 1000)
	}
	if p := float64(h.P99()) / 1e3; math.Abs(p-990) > 15 {
		t.Errorf("p99 of 1..1000 us = %v", p)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a ')' in it, as the kernel prints it.
	text := "4242 (mem node) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 66 0 0 20 0 9 0 100 1000 200 18446744073709551615\n"
	got, err := parseProcStatCPU(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+66) / clkTck; got != want {
		t.Errorf("cpu = %v s, want %v", got, want)
	}
	if _, err := parseProcStatCPU("12 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("stat line without a command accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	text := "Name:\tmagecache\nVmPeak:\t 2000000 kB\nVmHWM:\t  159744 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(text)
	if err != nil {
		t.Fatal(err)
	}
	if got != 156 {
		t.Errorf("VmHWM = %v MiB, want 156", got)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
}

func TestStatDelta(t *testing.T) {
	a := memnode.Stats{ReadOps: 10, WriteOps: 4, BytesRead: 40960, BytesWrite: 16384}
	b := memnode.Stats{ReadOps: 110, WriteOps: 36, BytesRead: 450560, BytesWrite: 147456}
	// A cluster's STAT is the sum over its nodes.
	d := subStat(addStat(a, a), addStat(b, b))
	if d.reads != 200 || d.writtenPages != 64 || d.bytes != 2*(409600+131072) {
		t.Errorf("delta = %+v", d)
	}
	if got := perOp(float64(d.reads), 1000); got != 0.2 {
		t.Errorf("reads per op = %v", got)
	}
	if perOp(5, 0) != 0 || ratioOf(5, 0) != 0 {
		t.Error("a run of no ops must read 0, not NaN")
	}
}

func sp(id, parent uint64, start, end int64) span {
	return span{name: "s", id: id, parent: parent, start: start, end: end}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 30),
		sp(3, 1, 20, 50),  // overlaps span 2: covered once
		sp(4, 1, 90, 120), // outlives its parent: clipped
		sp(5, 0, 200, 300),
		sp(6, 5, 210, 260),
		sp(7, 0, 400, 500), // no children: not a parent, no entry
		sp(8, 99, 0, 10),   // parent not kept: ignored
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 5: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestSpanLogSamplesByRequest(t *testing.T) {
	l := newSpanLog()
	e := l.epoch
	for i := 0; i < 64; i++ {
		id := l.newID()
		l.add("child", 0, e, e.Add(time.Microsecond), id, 1)
		l.addID(id, "parent", 0, e, e.Add(2*time.Microsecond), 0, 1)
	}
	if n := l.hist("child").Count(); n != 64 {
		t.Errorf("histogram saw %d child spans, want all 64", n)
	}
	// A kept request keeps both its spans; a dropped one, neither.
	kept := make(map[uint64]int)
	for _, s := range l.spans {
		root := s.parent
		if root == 0 {
			root = s.id
		}
		kept[root]++
	}
	if len(kept) == 0 || len(kept) >= 64 {
		t.Fatalf("%d of 64 requests kept: sampling is off", len(kept))
	}
	for root, n := range kept {
		if n != 2 {
			t.Errorf("request %d kept %d of its 2 spans", root, n)
		}
	}
	var nilLog *spanLog
	if nilLog.add("x", 0, e, e, 0, 0) != 0 || nilLog.newID() != 0 {
		t.Error("a nil log must record nothing")
	}
	nilLog.counter("x", nil)
}

func TestChromeTraceLoads(t *testing.T) {
	l := newSpanLog()
	e := l.epoch
	id := l.newID()
	for !sampled(id) {
		id = l.newID()
	}
	l.add("memnode.Read", 0, e.Add(time.Microsecond), e.Add(9*time.Microsecond), id, 1)
	l.addID(id, "upager.Pin", 0, e, e.Add(10*time.Microsecond), 0, 1)
	l.counter("upager", map[string]any{"faults": 1})
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := l.writeChrome(path, "test"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON array of events: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"process_name", "memnode.Read", "upager.Pin", "upager"} {
		if !names[want] {
			t.Errorf("trace has no %q event", want)
		}
	}
}

// syncOnly is a Backing without ReadAsync, like memcluster.Cluster.
type syncOnly struct{ upager.Backing }

// asyncToo adds ReadAsync, like memnode.Client.
type asyncToo struct{ syncOnly }

func (asyncToo) ReadAsync(uint64, int64, int64) *memnode.Pending { return nil }

// upager chooses its fault path by asserting for AsyncBacking; the shim
// must neither hide ReadAsync nor invent it.
func TestShimKeepsTheBackingsShape(t *testing.T) {
	wrapped := traceBacking(asyncToo{}, "memnode", nil, nil, nil)
	if _, ok := wrapped.(upager.AsyncBacking); !ok {
		t.Error("shim hides ReadAsync: upager would fall back to its synchronous read path")
	}
	wrapped = traceBacking(syncOnly{}, "memcluster", nil, nil, nil)
	if _, ok := wrapped.(upager.AsyncBacking); ok {
		t.Error("shim invents ReadAsync for a backing that has none")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "p50_us", better: "lower", bound: 0.10}
	higher := metricSpec{name: "ops_per_s", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(104), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{higher, tight(100), tight(95), "same"},
		// One set's own runs disagree by more than the bound.
		{lower, []float64{80, 90, 100, 110, 120}, tight(130), "unresolved"},
		{lower, tight(100), []float64{80, 100, 130, 160, 190}, "unresolved"},
		// Set-up is judged on its medians whatever its spread.
		{metricSpec{name: "setup_s", better: "lower", bound: 0.25}, []float64{2, 3, 4, 5, 6}, []float64{2.1, 3, 4.1, 5, 6}, "same"},
		// Single runs: no spread to judge by, medians alone.
		{lower, []float64{100}, []float64{120}, "worse"},
		{lower, []float64{100}, []float64{101}, "same"},
	}
	for _, c := range cases {
		got := compareMetric(c.spec, c.a, c.b)
		if got.verdict != c.want {
			t.Errorf("%s %v -> %v: %s (spread %.3f), want %s", c.spec.name, c.a, c.b, got.verdict, got.spread, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failed uint64) string {
		r := newResult("kv-local", 1, false)
		r.set("ops_per_s", opsPerS)
		r.Attempted, r.Failed = 1000, failed
		r.finish()
		b, err := json.Marshal(outFile{Runs: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0)
	var out strings.Builder
	if code := compareFiles(&out, base, write("same.json", 1010, 0)); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, write("slow.json", 700, 0)); code != 1 {
		t.Errorf("30%% slower: exit %d", code)
	}
	if code := compareFiles(&out, base, write("bad.json", 1000, 1)); code != 1 {
		t.Errorf("one failed op: exit %d, want 1 (any rise is a regression)", code)
	}
	if !strings.Contains(out.String(), "failed_ops") {
		t.Errorf("no failed_ops row in:\n%s", out.String())
	}
}

// A workload whose runs died leaves no result behind. It must not
// compare as "same" by dropping out of the table, and sets run under
// different load models must not be compared at all.
func TestCompareFilesRefusesHolesAndMismatches(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp, perWorkload map[string]int) string {
		f := outFile{Stamp: st}
		for w, n := range perWorkload {
			for i := 0; i < n; i++ {
				r := newResult(w, int64(i+1), false)
				for _, s := range endToEnd {
					r.set(s.name, 100)
				}
				r.Attempted = 1000
				r.finish()
				f.Runs = append(f.Runs, r)
			}
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	asked := stamp{Workloads: []string{"kv-local", "kv-far"}, Runs: 3, Seconds: 12, Clients: 2, KVWindow: 16, SliceMs: 250}
	full := write("full.json", asked, map[string]int{"kv-local": 3, "kv-far": 3})
	var out strings.Builder
	if code := compareFiles(&out, full, full); code != 0 {
		t.Fatalf("a set against itself: exit %d\n%s", code, out.String())
	}
	for name, holes := range map[string]map[string]int{
		"kv-far died in every run": {"kv-local": 3},
		"kv-far died in one run":   {"kv-local": 3, "kv-far": 2},
	} {
		out.Reset()
		code := compareFiles(&out, full, write("holes.json", asked, holes))
		if code != 1 || !strings.Contains(out.String(), "unresolved") {
			t.Errorf("%s: exit %d, want 1 and an unresolved row\n%s", name, code, out.String())
		}
	}
	// A stamp that asks for nothing (a hand-made set) is still held to
	// what the other set has.
	out.Reset()
	if code := compareFiles(&out, full, write("bare.json", stamp{Seconds: 12, Clients: 2, KVWindow: 16, SliceMs: 250}, map[string]int{"kv-local": 3})); code != 1 {
		t.Errorf("kv-far in the base only: exit %d, want 1\n%s", code, out.String())
	}
	longer := asked
	longer.Seconds = 20
	if code := compareFiles(&out, full, write("longer.json", longer, map[string]int{"kv-local": 3, "kv-far": 3})); code != 2 {
		t.Errorf("12 s runs against 20 s runs: exit %d, want 2", code)
	}
}

// BENCHMARK.json at the root repeats spec.go for the driver. They must
// not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json above the benchmark: %v", err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs spec %+v", i, f.Workloads[i], w)
		}
	}
	check := func(kind string, got []jm, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: %+v vs spec %+v", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.bound) {
				t.Errorf("%s %s: bound differs from spec's %v", kind, s.name, s.bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

func TestDriverLine(t *testing.T) {
	r := newResult("kv-far", 1, false)
	r.set("ops_per_s", 5)
	r.set("memnode.reads_per_op", 0.3)
	r.Attempted = 10
	r.finish()
	line := r.driverLine()
	ms := line["metrics"].(map[string]metric)
	if len(ms) != len(endToEnd) || ms["ops_per_s"].Value != 5 {
		t.Errorf("untraced line carries %v", ms)
	}
	r.Traced = true
	ms = r.driverLine()["metrics"].(map[string]metric)
	if len(ms) != len(perLayer) || ms["memnode.reads_per_op"].Value != 0.3 || ms["sim.cell_s.ideal"].Unit != "s" {
		t.Errorf("traced line carries %d metrics, want every per-layer one", len(ms))
	}
	// A moved robustness counter voids the run even with no failed op.
	r.set("memcluster.failovers", 1)
	r.finish()
	if r.Correct {
		t.Error("a failover left the run correct")
	}
}
