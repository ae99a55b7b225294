package memnode

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runBudget feeds a script of wait outcomes to the state machine, one
// wait after the other: 'h' the wait was a hit, 'p' it ended in a park.
// An 'h' on a wait that does not spin is a scripting error — such a
// wait cannot hit. It returns the final state and how many of the
// waits spun.
func runBudget(t *testing.T, b shmBudget, script string) (shmBudget, int) {
	t.Helper()
	spun := 0
	for i, c := range script {
		began := b
		var spins bool
		b, spins = b.begin()
		if spins {
			spun++
		}
		switch {
		case c == 'h' && !spins:
			t.Fatalf("script %q step %d: hit on a wait that parks at once (%+v)", script, i, began)
		case c == 'h':
			b = b.afterHit()
		case spins:
			b = b.afterPark(began)
		}
	}
	return b, spun
}

// spinsNext reports whether the next wait from b would spin.
func spinsNext(b shmBudget) bool {
	_, spins := b.begin()
	return spins
}

// TestShmBudgetTrajectory pins the state machine against scripted
// outcome sequences.
func TestShmBudgetTrajectory(t *testing.T) {
	full := shmBudget{credit: shmCreditMax}
	probeDue := shmBudget{quiet: shmProbeEvery - 1}
	for _, tc := range []struct {
		name   string
		from   shmBudget
		script string
		credit uint32
		spins  bool
	}{
		{"hits keep a full budget full", full, "hhhhhhhh", shmCreditMax, true},
		{"one park after a streak keeps spinning", full, "p", 4, true},
		{"three parks after a streak keep spinning", full, "ppp", 1, true},
		{"four parks in a row collapse it", full, "pppp", 0, false},
		{"a hit between parks rebuilds", full, "ppphppp", 0, false},
		{"hits rebuild what a park took", full, "pphhhhhhh", shmCreditMax, true},
		{"a lone hit restores the budget at once", probeDue, "h", 1, true},
		{"and buys no second fruitless spin", probeDue, "hp", 0, false},
		{"two hits buy one", probeDue, "hhp", 1, true},
		{"a failed probe changes nothing", probeDue, "p", 0, false},
	} {
		got, _ := runBudget(t, tc.from, tc.script)
		if got.credit != tc.credit || spinsNext(got) != tc.spins {
			t.Errorf("%s: %q from %+v → %+v (next spins %v), want credit %d spins %v",
				tc.name, tc.script, tc.from, got, spinsNext(got), tc.credit, tc.spins)
		}
	}
}

// TestShmBudgetOverlappingParks: waiters that time out together have
// learnt one thing. Thirty-two waits that began in the same state and
// all end in a park halve the credit once, not to zero.
func TestShmBudgetOverlappingParks(t *testing.T) {
	b := shmBudget{credit: shmCreditMax}
	began := b
	for i := 0; i < 32; i++ {
		b = b.afterPark(began)
	}
	if b.credit != shmCreditMax/2 {
		t.Errorf("32 overlapping parks left credit %d, want %d", b.credit, shmCreditMax/2)
	}
	// The next generation of waits starts from the new state and counts.
	if b = b.afterPark(b); b.credit != shmCreditMax/4 {
		t.Errorf("a later park left credit %d, want %d", b.credit, shmCreditMax/4)
	}
	// Several waits starting together without credit: one takes the probe.
	b = shmBudget{quiet: shmProbeEvery - 2}
	probes := 0
	for i := 0; i < 32; i++ {
		var spins bool
		if b, spins = b.begin(); spins {
			probes++
		}
	}
	if probes != 1 {
		t.Errorf("%d of 32 waits starting together took the probe, want 1", probes)
	}
}

// TestShmBudgetCollapseAndProbes: against a peer that never answers a
// yield the budget must reach zero within a bounded number of waits,
// stay there but for one probe in shmProbeEvery, and so bound what the
// spinning costs per parked wait.
func TestShmBudgetCollapseAndProbes(t *testing.T) {
	b, spun := runBudget(t, shmBudget{credit: shmCreditMax}, "pppppppp")
	if b.credit != 0 || spun > 4 {
		t.Errorf("after 8 parks: credit %d after %d full spins, want 0 after at most log2(%d)+1", b.credit, spun, shmCreditMax)
	}
	const waits = 100 * shmProbeEvery
	probes, gap, maxGap := 0, 0, 0
	for i := 0; i < waits; i++ {
		began := b
		var spins bool
		if b, spins = b.begin(); spins {
			probes++
			gap = 0
			b = b.afterPark(began)
		} else if gap++; gap > maxGap {
			maxGap = gap
		}
	}
	if probes != waits/shmProbeEvery {
		t.Errorf("%d probes in %d parked waits, want one in %d", probes, waits, shmProbeEvery)
	}
	if maxGap >= shmProbeEvery {
		t.Errorf("%d waits without a probe, want fewer than %d", maxGap, shmProbeEvery)
	}
	// The cost bound of shm_wait.go's header: under 5 % of a parked op,
	// taking a parked round trip at ~20 µs and a yield at ~0.1 µs.
	perWait := float64(probes*(shmInlinePolls+2*shmSpinYields)) / waits
	if perWait > 8 {
		t.Errorf("probes cost %.1f yields per parked op across the three sites, want under 8", perWait)
	}
}

// TestShmBudgetRecovery: once yielding starts to pay again — every
// wait that spins hits — a collapsed site must be back at its full,
// park-tolerant budget within a bounded number of waits, however long
// it has been parked.
func TestShmBudgetRecovery(t *testing.T) {
	for _, parked := range []int{4, 5, 63, 64, 1000, 1 << 20} {
		b := shmBudget{credit: shmCreditMax}
		for i := 0; i < parked; i++ {
			began := b
			var spins bool
			if b, spins = b.begin(); spins {
				b = b.afterPark(began)
			}
		}
		waits := 0
		for b.credit < shmCreditMax {
			var spins bool
			if b, spins = b.begin(); spins {
				b = b.afterHit()
			}
			if waits++; waits > shmProbeEvery+shmCreditMax {
				t.Fatalf("after %d parks: still at %+v after %d waits", parked, b, waits)
			}
		}
		if after, _ := runBudget(t, b, "ppp"); !spinsNext(after) {
			t.Errorf("after %d parks and recovery: three parks collapse the budget again", parked)
		}
	}
}

// TestShmBudgetPacks: the state survives its one-word encoding.
func TestShmBudgetPacks(t *testing.T) {
	for _, b := range []shmBudget{{}, {credit: shmCreditMax}, {quiet: shmProbeEvery - 1}, {credit: 3, quiet: 17, round: 1<<32 - 1}} {
		if got := unpackShmBudget(b.pack()); got != b {
			t.Errorf("%+v packs to %+v", b, got)
		}
	}
}

// TestShmWaitSpin drives the primitive itself with scripted ready
// functions: what counts as a hit, what is charged to a park, and that
// a wait satisfied at the first look teaches it nothing.
func TestShmWaitSpin(t *testing.T) {
	var stats shmWaitStats
	var w shmWait
	w.init(16, &stats)
	after := func(n int) func() bool {
		calls := 0
		return func() bool { calls++; return calls > n }
	}
	never := func() bool { return false }

	// Collapse it: each fruitless wait spends the full limit.
	for i := 0; i < 4; i++ {
		if w.spin(never) {
			t.Fatal("spin reported ready for a condition that never holds")
		}
	}
	if p, y := stats.parks.Load(), stats.spinYields.Load(); p != 4 || y != 4*16 {
		t.Fatalf("after 4 fruitless waits: %d parks, %d wasted yields, want 4 and 64", p, y)
	}
	if b := unpackShmBudget(w.state.Load()); b.credit != 0 {
		t.Fatalf("after 4 fruitless waits: %+v, want zero credit", b)
	}
	// At zero a wait parks without yielding: ready is looked at once.
	looks := 0
	w.spin(func() bool { looks++; return false })
	if looks != 1 || stats.spinYields.Load() != 4*16 {
		t.Errorf("zero-budget wait looked %d times and wasted yields grew to %d", looks, stats.spinYields.Load())
	}
	// A wait satisfied at the first look is no hit: still zero credit.
	before := w.state.Load()
	if !w.spin(after(0)) {
		t.Fatal("spin missed a condition that already held")
	}
	if w.state.Load() != before {
		t.Errorf("first-look success moved the state: %+v → %+v", unpackShmBudget(before), unpackShmBudget(w.state.Load()))
	}
	// Park until the probe is due, then let it hit after three yields.
	for !spinsNext(unpackShmBudget(w.state.Load())) {
		w.spin(never)
	}
	parks := stats.parks.Load()
	if !w.spin(after(3)) {
		t.Fatal("probe missed a condition that came true after three yields")
	}
	if b := unpackShmBudget(w.state.Load()); b.credit != 1 || !spinsNext(b) {
		t.Errorf("after a probe hit: %+v, want credit 1", b)
	}
	if stats.parks.Load() != parks {
		t.Error("a hit was counted as a park")
	}
	// A zero-limit site (the test hook) never yields and never panics on
	// nil stats.
	var off shmWait
	if off.spin(never) {
		t.Error("zero-value shmWait reported ready")
	}
}

// TestShmWaitOnePGate pins the one-P rule of shm_wait.go: only a site
// whose process has one P yields to the OS, only after a Go yield left
// the wait unsatisfied, and re-checks after it; an iteration that made
// both yields is one wasted yield.
func TestShmWaitOnePGate(t *testing.T) {
	looks := 0
	var yieldsAt []int // looks taken before each OS yield
	saved := shmPeerYield
	shmPeerYield = func() { yieldsAt = append(yieldsAt, looks) }
	t.Cleanup(func() { shmPeerYield = saved })
	after := func(n int) func() bool {
		looks = 0
		return func() bool { looks++; return looks > n }
	}
	never := after(1 << 30)

	var stats shmWaitStats
	var multi shmWait
	multi.init(4, &stats)
	multi.oneP = false
	if multi.spin(never) || len(yieldsAt) != 0 {
		t.Fatalf("a site with more than one P yielded to the OS %d times", len(yieldsAt))
	}

	var w shmWait
	w.init(4, &stats)
	w.oneP = true
	if !w.spin(after(0)) || len(yieldsAt) != 0 {
		t.Fatalf("a first-look hit yielded to the OS %d times", len(yieldsAt))
	}
	if !w.spin(after(1)) || len(yieldsAt) != 0 {
		t.Fatalf("a wait the Go yield satisfied yielded to the OS %d times", len(yieldsAt))
	}
	if !w.spin(after(2)) || len(yieldsAt) != 1 || yieldsAt[0] != 2 || looks != 3 {
		t.Fatalf("a wait the OS yield satisfied: OS yields after looks %v, %d looks; want [2] and 3", yieldsAt, looks)
	}
	yieldsAt = nil
	parks, wasted := stats.parks.Load(), stats.spinYields.Load()
	never = after(1 << 30)
	if w.spin(never) {
		t.Fatal("spin reported ready for a condition that never holds")
	}
	if want := []int{2, 4, 6, 8}; !slices.Equal(yieldsAt, want) || looks != 9 {
		t.Errorf("a fruitless wait of 4: OS yields after looks %v, %d looks; want %v and 9", yieldsAt, looks, want)
	}
	if p, y := stats.parks.Load()-parks, stats.spinYields.Load()-wasted; p != 1 || y != 4 {
		t.Errorf("a fruitless wait of 4 iterations counted %d parks, %d wasted yields; want 1 and 4", p, y)
	}
}

// shmParkedPair is an in-process shm server and client with every
// yield budget held at zero: each wait on either side parks.
func shmParkedPair(t testing.TB, window int) (*Server, *Client) {
	t.Helper()
	if !ShmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
	srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{EnableShm: true})
	if err != nil {
		t.Skipf("shm server unavailable: %v", err)
	}
	srv.shmParkOnly.Store(true)
	t.Cleanup(func() { srv.Close() })
	opts := DefaultOptions()
	opts.Window = window
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c.shmParkOnly.Store(true)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// shmServerWaits sums the wait counters of the server's live shm
// connections.
func shmServerWaits(s *Server) (parks, doorbells, yields uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h := range s.shmConns {
		parks += h.waits.parks.Load()
		doorbells += h.waits.doorbells.Load()
		yields += h.waits.spinYields.Load()
	}
	return
}

// runShmReads drives total 4 KiB reads from lanes goroutines and
// returns how many failed.
func runShmReads(c *Client, id uint64, lanes, total int) uint64 {
	var next atomic.Int64
	var fails atomic.Uint64
	var wg sync.WaitGroup
	for d := 0; d < lanes; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				body, err := c.Read(id, (i%4096)*4096, 4096)
				if err != nil {
					fails.Add(1)
					continue
				}
				PutBuf(body)
			}
		}()
	}
	wg.Wait()
	return fails.Load()
}

// TestShmParkWakeStress hammers the park/doorbell path, which polling
// hides almost completely in-process: with both sides' budgets at zero
// every wait announces sleep, re-checks and parks, and every publish
// has to find the sleeper. A lost wake-up shows as a hang (then as a
// timeout-driven retry); the run must finish with neither.
func TestShmParkWakeStress(t *testing.T) {
	const lanes = 8
	total := 100000
	if testing.Short() {
		total = 10000
	}
	srv, c := shmParkedPair(t, lanes)
	id, err := c.Register(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan uint64, 1)
	go func() { done <- runShmReads(c, id, lanes, total) }()
	select {
	case fails := <-done:
		if fails != 0 {
			t.Fatalf("%d of %d parked reads failed", fails, total)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("parked reads hung: a wake-up was lost")
	}
	m := c.Metrics()
	if got := c.TransportKind(); got != "shm" || m.ShmConnects != 1 {
		t.Fatalf("ran over %q with %d shm connects, want one shm stream", got, m.ShmConnects)
	}
	if m.Retries != 0 || m.Timeouts != 0 {
		t.Errorf("parked reads needed %d retries, %d timeouts", m.Retries, m.Timeouts)
	}
	if m.ShmSpinYields != 0 {
		t.Errorf("%d yields with the budgets held at zero", m.ShmSpinYields)
	}
	if m.ShmParks < uint64(total)/lanes || m.ShmDoorbells == 0 {
		t.Errorf("%d parks and %d doorbells over %d parked reads: the path under test did not run", m.ShmParks, m.ShmDoorbells, total)
	}
	parks, doorbells, yields := shmServerWaits(srv)
	if parks == 0 || doorbells == 0 || yields != 0 {
		t.Errorf("server side: %d parks, %d doorbells, %d yields", parks, doorbells, yields)
	}
}

// TestShmParkedPathAllocatesNothing pins the reusable park channel of
// the pooled call: a read whose submitter parks, whose completer is
// woken through the doorbell socket and whose server parks between
// requests costs no allocation on either side.
func TestShmParkedPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, c := shmParkedPair(t, 4)
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		body, err := c.Read(id, 4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(body)
	}
	for i := 0; i < 100; i++ {
		read() // pool the call, its park channel and the arena extent
	}
	before := c.Metrics().ShmParks
	if allocs := testing.AllocsPerRun(2000, read); allocs != 0 {
		t.Errorf("a parked shm read allocates %.0f times, want 0", allocs)
	}
	if parks := c.Metrics().ShmParks - before; parks < 2000 {
		t.Errorf("only %d parks over 2000 reads: the parked path did not run", parks)
	}
}

// TestShmDeadlineRearm: the doorbell socket's deadline is re-armed only
// when less than half its span is left.
func TestShmDeadlineRearm(t *testing.T) {
	var d shmDeadline
	first, ok := d.due(time.Hour)
	if !ok {
		t.Fatal("unarmed deadline not due")
	}
	if left := time.Until(first); left < 59*time.Minute || left > time.Hour {
		t.Errorf("armed %v ahead, want an hour", left)
	}
	if _, ok := d.due(time.Hour); ok {
		t.Error("re-armed with nearly the whole span left")
	}
	// With under half of a (now much longer) span left it is due again.
	if _, ok := d.due(3 * time.Hour); !ok {
		t.Error("not re-armed with a third of the span left")
	}
	// An expired deadline is always due.
	d.until.Store(int64(time.Since(shmEpoch) - time.Second))
	if _, ok := d.due(time.Millisecond); !ok {
		t.Error("expired deadline not due")
	}
}
