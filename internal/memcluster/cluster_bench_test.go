package memcluster_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time" // benchmark latency sampling needs wall clock

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/stats"
)

// BenchmarkClusterFailoverRead measures read throughput and tail
// latency on a degraded 3-shard x 2-replica cluster: one replica is
// killed before the timer starts, so every read of its shard's pages
// rides the failover ladder to the surviving peer. This is the
// failover-read p99 the CI bench job pins via benchsnap -require.
func BenchmarkClusterFailoverRead(b *testing.B) {
	const (
		shards   = 3
		replicas = 2
	)
	srvs := make([][]*memnode.Server, shards)
	addrs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			srv, err := memnode.NewServer("127.0.0.1:0", 64<<20)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			srvs[s] = append(srvs[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
	}
	cl, err := memcluster.New(addrs, testOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const regionPages = 8192
	h, err := cl.Register(regionPages * testPage)
	if err != nil {
		b.Fatal(err)
	}
	zero := make([]byte, testPage)
	for p := int64(0); p < regionPages; p++ {
		if err := cl.Write(h, p*testPage, zero); err != nil {
			b.Fatal(err)
		}
	}
	// Degrade the cluster: shard 0 loses a replica for the whole
	// measurement. The first read against it pays the demotion; the
	// steady state is what the percentiles describe.
	srvs[0][0].Close()

	const depth = 32
	lat := stats.NewConcurrentHistogram()
	var next atomic.Int64
	var fails atomic.Uint64
	var wg sync.WaitGroup
	b.SetBytes(testPage)
	b.ResetTimer()
	for d := 0; d < depth; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hist := stats.NewHistogram()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					break
				}
				t0 := time.Now()
				body, err := cl.Read(h, (i%regionPages)*testPage, testPage)
				if err != nil {
					fails.Add(1)
					continue
				}
				memnode.PutBuf(body)
				hist.Record(time.Since(t0).Nanoseconds())
			}
			lat.Merge(hist)
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := fails.Load(); n > 0 {
		b.Fatalf("%d reads failed on a cluster with a surviving replica per shard", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(lat.Snapshot().P99())/1e3, "p99-us")
}
