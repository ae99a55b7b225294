package memcluster_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time" // tests of the real cluster client need wall-clock deadlines

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// TestOversizedBatchIsCutNotFailedOver: a batch no single node op can
// carry (16 x 1 MiB against MaxIO of 8 MiB) is the cluster's to cut,
// not a reason to demote anyone. Before route cut requests into legal
// parts the node clients refused it, the refusal read as a dying node,
// both replicas were marked down and the next write found no healthy
// replica.
func TestOversizedBatchIsCutNotFailedOver(t *testing.T) {
	const mib = int64(1 << 20)
	_, addrs := startServers(t, 1, 2)
	opts := testOpts()
	opts.PageBytes = mib
	cl, err := memcluster.New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(16 * mib)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, 16)
	want := make([]byte, 16*mib)
	for i := range offs {
		offs[i] = int64(i) * mib
	}
	for i := range want {
		want[i] = byte(i>>20)*17 ^ byte(i)
	}
	if err := cl.WriteV(h, offs, memnode.SplitPages(want, mib)); err != nil {
		t.Fatalf("16 MiB WriteV: %v", err)
	}
	got := make([]byte, len(want))
	if err := cl.ReadVInto(h, offs, memnode.SplitPages(got, mib)); err != nil {
		t.Fatalf("16 MiB ReadVInto: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the parts of the batch did not land where the batch put them")
	}
	// One descriptor larger than any node op, off the page grid.
	span, err := cl.Read(h, mib/2, 9*mib)
	if err != nil || !bytes.Equal(span, want[mib/2:mib/2+9*mib]) {
		t.Fatalf("9 MiB Read across pages: err=%v", err)
	}
	st := cl.Stats()
	if st.Failovers != 0 || st.ProbeFlaps != 0 || st.DegradedWrites != 0 {
		t.Errorf("a legal request cost failovers=%d flaps=%d degraded=%d", st.Failovers, st.ProbeFlaps, st.DegradedWrites)
	}
	for _, rs := range st.PerShard[0].Replicas {
		if !rs.Healthy {
			t.Errorf("replica %s was demoted", rs.Addr)
		}
	}
	// A request that is wrong stays the caller's error and nobody's fault.
	if err := cl.ReadVInto(h, []int64{0}, [][]byte{make([]byte, 16*mib+1)}); err == nil {
		t.Error("a read past the region's end was accepted")
	}
	if st := cl.Stats(); st.Failovers != 0 {
		t.Errorf("an out-of-bounds request cost %d failovers", st.Failovers)
	}
}

// TestProbeDialRacesDataPath: a replica that was dead at New has no
// client until a probe sweep dials it, and that store happens while ops
// are building their attempt lists. Every reader of the pointer must be
// under the shard's lock; the race detector is the assertion.
func TestProbeDialRacesDataPath(t *testing.T) {
	for iter := 0; iter < 24; iter++ {
		srvs, addrs := startServers(t, 1, 2)
		deadAddr := srvs[0][1].Addr()
		srvs[0][1].Close()
		cl, err := memcluster.New(addrs, testOpts())
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
		deadline := time.Now().Add(15 * time.Second)
		var restarted *memnode.Server
		for restarted == nil {
			if time.Now().After(deadline) {
				t.Fatal("could not rebind the dead replica's address")
			}
			if restarted, _ = memnode.NewServer(deadAddr, 64<<20); restarted == nil {
				runtime.Gosched()
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A burst, not a loop until the sweep ends: the dial comes first
				// in the sweep, and the resync behind it copies every region
				// registered here while these ops compete with it for the CPU.
				for n := 0; n < 32; n++ {
					got, err := cl.Read(h, 0, testPage)
					if err != nil {
						t.Errorf("read during the probe's dial: %v", err)
						return
					}
					memnode.PutBuf(got)
					if n%8 != 0 {
						continue
					}
					if _, err := cl.Register(testPage); err != nil {
						t.Errorf("register during the probe's dial: %v", err)
						return
					}
				}
			}()
		}
		cl.ProbeNow()
		wg.Wait()
		if n := cl.Stats().Readmissions; n != 1 {
			t.Errorf("iteration %d: %d readmissions after the sweep that dialled the replica, want 1", iter, n)
		}
		cl.Close()
		restarted.Close()
		if t.Failed() {
			return
		}
	}
}
