package memcluster_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

const (
	testPage  = int64(4096)
	testPages = int64(48)
)

// testOpts keeps failover and probing snappy under test and hands
// probe timing to the test body (DisableProber + explicit ProbeNow).
func testOpts() memcluster.Options {
	return memcluster.Options{
		PageBytes:       testPage,
		ProbeInterval:   5 * time.Millisecond,
		ProbeBackoffMax: 20 * time.Millisecond,
		DisableProber:   true,
		Node: memnode.Options{
			DialTimeout: 250 * time.Millisecond,
			IOTimeout:   time.Second,
			MaxAttempts: 2,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
	}
}

// startServers launches shards × replicas in-process memnodes and
// returns the server grid plus the address grid New wants.
func startServers(t *testing.T, shards, replicas int) ([][]*memnode.Server, [][]string) {
	t.Helper()
	srvs := make([][]*memnode.Server, shards)
	addrs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			srvs[s] = append(srvs[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
	}
	return srvs, addrs
}

// pageBody builds the deterministic content of one page at a version.
func pageBody(page int64, version byte) []byte {
	b := make([]byte, testPage)
	for i := range b {
		b[i] = byte(page)*7 ^ version ^ byte(i)
	}
	return b
}

func writeAll(t *testing.T, cl *memcluster.Cluster, h uint64, version byte) {
	t.Helper()
	for p := int64(0); p < testPages; p++ {
		if err := cl.Write(h, p*testPage, pageBody(p, version)); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
}

func checkAll(t *testing.T, cl *memcluster.Cluster, h uint64, version byte) {
	t.Helper()
	for p := int64(0); p < testPages; p++ {
		got, err := cl.Read(h, p*testPage, testPage)
		if err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if !bytes.Equal(got, pageBody(p, version)) {
			t.Fatalf("page %d content mismatch at version %d", p, version)
		}
		memnode.PutBuf(got)
	}
}

// TestClusterRoundTrip covers the basic client surface over a 2x2
// cluster: single-page and page-straddling reads/writes plus batched
// READV/WRITEV, all verified byte-for-byte.
func TestClusterRoundTrip(t *testing.T) {
	_, addrs := startServers(t, 2, 2)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 1)
	checkAll(t, cl, h, 1)

	// A write straddling two ownership pages, read back as a span.
	span := make([]byte, testPage)
	for i := range span {
		span[i] = byte(0xC3 ^ i)
	}
	off := testPage/2 + 3*testPage
	if err := cl.Write(h, off, span); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, off, int64(len(span)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("straddling span mismatch")
	}

	// Batched verbs across all shards at once.
	offs := make([]int64, testPages)
	pages := make([][]byte, testPages)
	for p := int64(0); p < testPages; p++ {
		offs[p] = p * testPage
		pages[p] = pageBody(p, 9)
	}
	if err := cl.WriteV(h, offs, pages); err != nil {
		t.Fatal(err)
	}
	bodies, err := cl.ReadV(h, offs, testPage)
	if err != nil {
		t.Fatal(err)
	}
	for p := range bodies {
		if !bytes.Equal(bodies[p], pages[p]) {
			t.Fatalf("readv page %d mismatch", p)
		}
		memnode.PutBuf(bodies[p])
	}

	st := cl.Stats()
	if st.Shards != 2 || st.Replicas != 4 {
		t.Fatalf("stats topology = %d/%d, want 2/4", st.Shards, st.Replicas)
	}
}

// TestClusterProbeRefreshesWeights checks the STATS plumbing: a probe
// sweep pulls each replica's free bytes and capacity-backed weight
// into the selection state.
func TestClusterProbeRefreshesWeights(t *testing.T) {
	_, addrs := startServers(t, 1, 2)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Register(testPages * testPage); err != nil {
		t.Fatal(err)
	}
	cl.ProbeNow()
	st := cl.Stats()
	for _, rs := range st.PerShard[0].Replicas {
		if !rs.Healthy {
			t.Fatalf("replica %s unexpectedly down", rs.Addr)
		}
		if rs.FreeBytes <= 0 {
			t.Fatalf("replica %s has no STATS weight after probe", rs.Addr)
		}
	}
}

// TestClusterChaosKillReplicaMidSweep is the acceptance scenario: a
// 3-shard x 2-replica cluster loses one replica in the middle of a
// concurrent read sweep and must finish the sweep with zero failed
// reads (failover only). The node then restarts, must be re-admitted
// after resync, and — with its surviving peer killed — must serve the
// writes it missed while down, proving resync copied them.
func TestClusterChaosKillReplicaMidSweep(t *testing.T) {
	srvs, addrs := startServers(t, 3, 2)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 1)

	// Concurrent read sweep; the kill lands once the sweep is warm.
	const readers = 4
	var readsDone atomic.Int64
	var sweepErr atomic.Value
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 30; round++ {
				for p := int64(0); p < testPages; p++ {
					got, err := cl.Read(h, p*testPage, testPage)
					if err != nil {
						sweepErr.CompareAndSwap(nil, fmt.Errorf("sweep read page %d: %w", p, err))
						return
					}
					ok := bytes.Equal(got, pageBody(p, 1))
					memnode.PutBuf(got)
					if !ok {
						sweepErr.CompareAndSwap(nil, fmt.Errorf("sweep page %d corrupt", p))
						return
					}
					readsDone.Add(1)
				}
			}
		}()
	}
	close(start)
	// Kill one replica of shard 0 strictly mid-sweep: after the sweep
	// has demonstrably started but long before it can finish.
	for readsDone.Load() < testPages {
		runtime.Gosched()
	}
	killedAddr := srvs[0][0].Addr()
	srvs[0][0].Close()
	wg.Wait()
	if err, _ := sweepErr.Load().(error); err != nil {
		t.Fatalf("read failed during single-replica outage: %v", err)
	}

	// Writes the dead replica misses; its peer carries them.
	writeAll(t, cl, h, 2)

	// Restart on the same address and poll for re-admission. The bind
	// can race the dying listener, so restarting is itself a poll.
	deadline := time.Now().Add(15 * time.Second)
	var restarted *memnode.Server
	for restarted == nil {
		if time.Now().After(deadline) {
			t.Fatal("could not rebind the killed replica's address")
		}
		restarted, _ = memnode.NewServer(killedAddr, 64<<20)
		if restarted == nil {
			runtime.Gosched()
		}
	}
	defer restarted.Close()
	for cl.Stats().Readmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica not re-admitted; stats: %+v", cl.Stats())
		}
		cl.ProbeNow()
	}

	// Kill the surviving peer: shard 0 now serves only from the
	// re-admitted replica, which must have the version-2 writes it
	// missed while down.
	srvs[0][1].Close()
	checkAll(t, cl, h, 2)

	st := cl.Stats()
	if st.Failovers == 0 {
		t.Fatal("expected data-path failovers during the outage")
	}
	if st.Readmissions == 0 || st.ResyncedPages == 0 {
		t.Fatalf("resync left no trace: %+v", st)
	}
}

// TestClusterResyncCoversLateRegions pins resync's no-missed-write
// guarantee for regions registered AFTER a resync began: their writes
// go only to healthy replicas, so they must reach the resyncing
// replica through the dirty-log settle passes (resolved against the
// live region table, not the bulk copy's snapshot). The test kills
// and restarts one replica of shard 0, registers + writes a fresh
// region while the resync is provably still running, then kills the
// surviving peer and reads the region back: pages shard 0 owns can
// only come from the re-admitted replica, so a miss surfaces as
// zero-filled data. The overlap is proven, not assumed — the cycle
// retries until the late writes complete while Stats still reports
// the replica resyncing (completion happens-before that observation,
// which happens-before admission).
func TestClusterResyncCoversLateRegions(t *testing.T) {
	srvs, addrs := startServers(t, 3, 2)
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A big region stretches the resync bulk copy into a window wide
	// enough to register and write a small region inside it. Its
	// content is irrelevant (zero everywhere); only its size matters.
	const bigPages = 8192
	if _, err := cl.Register(bigPages * testPage); err != nil {
		t.Fatal(err)
	}
	const latePages = int64(24)
	target := srvs[0][0]
	targetAddr := target.Addr()
	replicaStats := func() (memcluster.ReplicaStats, bool) {
		for _, rs := range cl.Stats().PerShard[0].Replicas {
			if rs.Addr == targetAddr {
				return rs, true
			}
		}
		return memcluster.ReplicaStats{}, false
	}

	deadline := time.Now().Add(30 * time.Second)
	var lateH uint64
	var lateV byte
	overlapped := false
	for cycle := 0; !overlapped; cycle++ {
		if time.Now().After(deadline) {
			t.Fatal("could not overlap a Register with a resync window")
		}
		target.Close()
		// Demote: probe sweeps against the dead server mark it down.
		for {
			cl.ProbeNow()
			if rs, ok := replicaStats(); ok && !rs.Healthy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("killed replica never demoted")
			}
		}
		// Restart on the same address; the bind can race the dying
		// listener, so restarting is itself a poll.
		var restarted *memnode.Server
		for restarted == nil {
			if time.Now().After(deadline) {
				t.Fatal("could not rebind the killed replica's address")
			}
			restarted, _ = memnode.NewServer(targetAddr, 64<<20)
			if restarted == nil {
				runtime.Gosched()
			}
		}
		target = restarted
		defer restarted.Close()
		// Drive re-admission from a background goroutine: the resync runs
		// synchronously inside one of these ProbeNow calls, and the main
		// goroutine races a Register+write burst into its copy window.
		base := cl.Stats().Readmissions
		done := make(chan struct{})
		go func() {
			defer close(done)
			for cl.Stats().Readmissions == base {
				cl.ProbeNow()
				runtime.Gosched()
			}
		}()
		sawResync := false
		for {
			rs, ok := replicaStats()
			if ok && rs.Resyncing {
				sawResync = true
				break
			}
			if ok && rs.Healthy {
				break // resync finished before we caught it; retry
			}
			if time.Now().After(deadline) {
				t.Fatal("replica neither resyncing nor re-admitted")
			}
			runtime.Gosched()
		}
		if sawResync {
			v := byte(100 + cycle)
			h, err := cl.Register(latePages * testPage)
			if err != nil {
				t.Fatalf("mid-resync register: %v", err)
			}
			for p := int64(0); p < latePages; p++ {
				if err := cl.Write(h, p*testPage, pageBody(p, v)); err != nil {
					t.Fatalf("mid-resync write page %d: %v", p, err)
				}
			}
			// Only if the replica is STILL resyncing after the last write
			// completed did the whole burst land inside the window.
			if rs, ok := replicaStats(); ok && rs.Resyncing {
				lateH, lateV = h, v
				overlapped = true
			}
		}
		<-done // resync finished; the replica is re-admitted
	}

	// Shard 0 now serves only from the re-admitted replica; the pages
	// it owns must carry the writes made mid-resync.
	srvs[0][1].Close()
	for p := int64(0); p < latePages; p++ {
		got, err := cl.Read(lateH, p*testPage, testPage)
		if err != nil {
			t.Fatalf("read late page %d: %v", p, err)
		}
		if !bytes.Equal(got, pageBody(p, lateV)) {
			t.Fatalf("late-region page %d lost its mid-resync write", p)
		}
		memnode.PutBuf(got)
	}
}

// TestClusterStartsWithDeadReplica checks graceful degradation at
// dial time: a cluster comes up with one replica down (and serves)
// as long as every shard keeps one live replica.
func TestClusterStartsWithDeadReplica(t *testing.T) {
	srvs, addrs := startServers(t, 2, 2)
	srvs[1][0].Close()
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 5)
	checkAll(t, cl, h, 5)

	// A shard with no live replica at all must refuse to come up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	if _, err := memcluster.New([][]string{{deadAddr}}, testOpts()); err == nil {
		t.Fatal("cluster with an all-dead shard should not start")
	}
}

// TestClusterCloseReleasesGoroutines guards the prober and per-node
// client teardown: repeated cluster create/close cycles (with the
// background prober ON) must not leak goroutines.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	_, addrs := startServers(t, 2, 2)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		opts := testOpts()
		opts.DisableProber = false
		cl, err := memcluster.New(addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		h, err := cl.Register(4 * testPage)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(h, 0, pageBody(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegisterRollbackOnShardFailure pins the Register failure path:
// when a later shard's replicas all refuse the region, handles already
// granted by earlier shards are released (UNREGISTER), so a failed
// Register does not bleed capacity on the healthy nodes.
func TestRegisterRollbackOnShardFailure(t *testing.T) {
	big, err := memnode.NewServer("127.0.0.1:0", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { big.Close() })
	small, err := memnode.NewServer("127.0.0.1:0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { small.Close() })
	cl, err := memcluster.New([][]string{{big.Addr()}, {small.Addr()}}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// 8 MiB fits shard 0's node but not shard 1's 1 MiB node.
	if _, err := cl.Register(8 << 20); err == nil {
		t.Fatal("register succeeded despite an undersized shard")
	}
	c, err := memnode.Dial(big.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions != 0 || st.UsedBytes != 0 {
		t.Errorf("failed register leaked on the healthy node: regions=%d used=%d", st.Regions, st.UsedBytes)
	}

	// The cluster stays usable at a size every shard can host.
	h, err := cl.Register(256 << 10)
	if err != nil {
		t.Fatalf("register after rollback: %v", err)
	}
	if err := cl.Write(h, 0, pageBody(0, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 0, testPage)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageBody(0, 1)) {
		t.Error("post-rollback region corrupted")
	}
	memnode.PutBuf(got)
}
