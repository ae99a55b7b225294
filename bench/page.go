package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/memcluster"
	"mage/internal/memnode"
	"mage/internal/stats"
	"mage/internal/upager"
)

// page-shm-write and page-cluster-read: no front end, just goroutines
// pinning pages of an in-process upager.Pager whose backing store is a
// spawned memnode daemon — one node over the shm ring, or four nodes
// behind memcluster.

const (
	// pageWarmPins per client, a count for the same reason kvWarmOps is:
	// the arena fills after 8192 faults and the evictor must be in
	// steady state before the first window opens.
	pageWarmPins = 49152
	rungSeconds  = 2
	frameSample  = 100 * time.Millisecond
)

// pageClient is one pinning goroutine. Correctness: each client owns an
// 8-byte lane in every page holding the number of write pins it has
// made to that page, and checks it on every pin. A lost writeback or a
// stale fault anywhere under the pager shows as a lane that went back
// in time.
type pageClient struct {
	id     int
	gen    *opGen
	expect []uint32
	stats  []opStats
	slot   *pinSlot

	prevEnd  time.Time // when the previous pin returned
	wrong    uint64
	firstBad error
}

// pin is one op: pin, check the lane, bump it on a write, unpin. st is
// nil outside the timed slices.
func (c *pageClient) pin(p *upager.Pager, o op, st *opStats, log *spanLog, traced bool) error {
	lane := 8 * c.id
	t0 := time.Now()
	var id uint64
	if traced {
		id = log.newID()
		c.slot.id.Store(id)
		c.slot.kid.Store(false)
		c.slot.pg.Store(int64(o.id))
	}
	f, err := p.Pin(uint64(o.id), o.write)
	if err != nil {
		return fmt.Errorf("pin page %d: %w", o.id, err)
	}
	cell := f.Data[lane : lane+8]
	got := binary.LittleEndian.Uint64(cell)
	want := uint64(c.expect[o.id])
	if o.write {
		c.expect[o.id]++
		binary.LittleEndian.PutUint64(cell, want+1)
	}
	f.Unpin()
	t1 := time.Now()
	end := t1
	if traced {
		c.slot.pg.Store(-1)
		// Only pins that reached the backing store are worth a span; a
		// hit has no children to attribute time to.
		if c.slot.kid.Load() {
			log.addID(id, "upager.Pin", c.id, t0, t1, 0, 1)
		}
		// Span bookkeeping is the tracer's cost, not the generator's: it
		// must lower the traced rate, not the speed reference.
		end = time.Now()
	}
	if got != want {
		c.wrong++
		if c.firstBad == nil {
			c.firstBad = fmt.Errorf("client %d page %d: lane reads %d, want %d", c.id, o.id, got, want)
		}
	}
	if st != nil {
		st.ops++
		st.lat.Record(t1.Sub(t0).Nanoseconds())
		// Everything between two pins is the harness's own: drawing the
		// next request and recording the last.
		st.genNs += t0.Sub(c.prevEnd).Nanoseconds()
		if got != want {
			st.failed++
		}
	}
	c.prevEnd = end
	return nil
}

// run is one pinning goroutine: a fixed warm-up, then pins in whatever
// slice the clock says, parking whenever it pauses, which it does first
// of all until every client is warm.
func (c *pageClient) run(p *upager.Pager, clk *phaseClock, tracedFrom int32, log *spanLog) error {
	for i := 0; i < pageWarmPins; i++ {
		if err := c.pin(p, c.gen.next(), nil, nil, false); err != nil {
			return err
		}
	}
	for {
		switch ph := clk.cur.Load(); ph {
		case phaseStop:
			return nil
		case phasePause:
			clk.park()
			c.prevEnd = time.Now()
		default:
			if err := c.pin(p, c.gen.next(), &c.stats[ph], log, ph >= tracedFrom); err != nil {
				return err
			}
		}
	}
}

// touchRegion is the page workloads' preload. memnode backs a region
// with 2 MiB huge pages and the first write into an extent zeroes all of
// it — seconds of server CPU per region on a VM, which left to the
// timed slices would drain out of them at a rate set by the access order.
// Writing every 32nd page puts 16 writes in each extent, enough that
// both shards of the cluster get at least one (a page's shard is a hash
// of its number); the pages stay zero, so every lane still starts at 0.
func touchRegion(p *upager.Pager) error {
	for pg := uint64(0); pg < pagePages; pg += 32 {
		f, err := p.Pin(pg, true)
		if err != nil {
			return fmt.Errorf("preload: pin page %d: %w", pg, err)
		}
		f.Unpin()
	}
	if err := p.Flush(); err != nil {
		return fmt.Errorf("preload: flush: %w", err)
	}
	return nil
}

// rungRead times depth-1 reads from a harness-owned client straight to
// one node: the rung below memcluster, so the difference to
// memcluster's own read span is what the cluster layer adds.
func rungRead(addr string, seed int64, log *spanLog) (*stats.Histogram, error) {
	c, err := memnode.DialOptions(addr, memnode.Options{Transport: memnode.TransportTCP})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	const region = 1 << 20
	handle, err := c.Register(region)
	if err != nil {
		return nil, fmt.Errorf("rung region: %w", err)
	}
	rng := rand.New(rand.NewSource(clientSeed(seed, 102)))
	h := stats.NewHistogram()
	for end := time.Now().Add(rungSeconds * time.Second); time.Now().Before(end); {
		off := int64(rng.Intn(region/pageBytes)) * pageBytes
		t0 := time.Now()
		body, err := c.Read(handle, off, pageBytes)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("rung read: %w", err)
		}
		memnode.PutBuf(body)
		h.Record(t1.Sub(t0).Nanoseconds())
		log.add("memnode.rung_read", 0, t0, t1, 0, 1)
	}
	return h, nil
}

func runPage(ctx context.Context, env *benchEnv, name string, o runOpts) (*result, error) {
	cluster := name == "page-cluster-read"
	writeFrac, nodes, transport, layer := 0.50, 1, "shm", "memnode"
	if cluster {
		writeFrac, nodes, transport, layer = 0.20, 4, "tcp", "memcluster"
	}

	res := newResult(name, o.seed, o.traced)
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	defer st.close()

	pl := o.plan()
	var log *spanLog
	if o.traced {
		log = newSpanLog()
	}

	ref, err := st.startRef(ctx)
	if err != nil {
		return nil, err
	}
	setup, err := startSetup(name, ref)
	if err != nil {
		return nil, err
	}
	// Each node must hold the whole 256 MiB region (memcluster registers
	// it on every replica) and a traced run's 1 MiB rung region.
	mn, err := st.spawnMemnode(ctx, env.bins["memnode"], nodes, 320, transport)
	if err != nil {
		return nil, err
	}
	var (
		backing upager.Backing
		client  *memnode.Client     // page-shm-write
		cl      *memcluster.Cluster // page-cluster-read
	)
	if cluster {
		cl, err = memcluster.New([][]string{mn.addrs[0:2], mn.addrs[2:4]}, memcluster.Options{})
		if err != nil {
			return nil, err
		}
		st.onClose(func() { cl.Close() })
		backing = cl
		res.Notes["transport"] = "memcluster 2 shards x 2 replicas, replicas dialled with memcluster's own options; stat client: " + mn.statters[0].TransportKind()
	} else {
		client, err = memnode.DialOptions(mn.addrs[0], memnode.Options{Transport: memnode.TransportShm})
		if err != nil {
			return nil, err
		}
		st.onClose(func() { client.Close() })
		backing = client
	}

	cs := make([]*pageClient, clients)
	slots := make([]*pinSlot, clients)
	for i := range cs {
		slots[i] = &pinSlot{}
		slots[i].pg.Store(-1)
		cs[i] = &pageClient{
			id:     i,
			gen:    newOpGen(o.seed, i, pagePages, writeFrac),
			expect: make([]uint32, pagePages),
			stats:  newSliceStats(pl.all),
			slot:   slots[i],
		}
	}
	var shimOn atomic.Bool
	if o.traced {
		backing = traceBacking(backing, layer, log, &shimOn, slots)
	}
	pager, err := upager.New(backing, pagePages, pageLocal, upager.Options{NoPrefetch: true})
	if err != nil {
		return nil, err
	}
	closed := false
	st.onClose(func() {
		if !closed {
			pager.Close()
		}
	})
	if client != nil {
		res.Notes["transport"] = client.TransportKind()
	}

	if err := setup.stage(); err != nil {
		return nil, err
	}
	if err := touchRegion(pager); err != nil {
		return nil, err
	}
	if err := setup.stage(); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	clk := newPhaseClock(clients)
	defer clk.resume(phaseStop) // whatever ends the run, no client stays parked
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.run(pager, clk, pl.tracedFrom, log); err != nil {
				cancel(err)
			}
		}()
	}
	// The free pool is sampled between boundaries: a starved pool stalls
	// faults, and only its minimum shows that.
	minFree := atomic.Int64{}
	minFree.Store(pageLocal)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(frameSample)
		defer tick.Stop()
		for range tick.C {
			switch ph := clk.cur.Load(); {
			case ph == phaseStop:
				return
			case ph >= 0:
				if f := int64(pager.Stats().FreeFrames); f < minFree.Load() {
					minFree.Store(f)
				}
			}
		}
	}()
	// Every client parks when its warm-up is done.
	if err := clk.awaitParked(ctx); err != nil {
		return nil, err
	}
	if err := setup.stage(); err != nil {
		return nil, err
	}

	cpu := func() (cpuTimes, error) {
		t := cpuTimes{"harness": selfCPU()}
		var err error
		if t["memnode"], err = procCPU(mn.d.pid()); err != nil {
			return nil, err
		}
		return t, nil
	}
	snaps, slices, werr := runSlices(ctx, clk, ref, pl.segs, cpu, func(seg int) (snap, error) {
		shimOn.Store(o.traced && seg == 1)
		s := snap{pager: pager.Stats(), mallocs: mallocs()}
		var err error
		if s.node, err = mn.stat(); err != nil {
			return s, err
		}
		log.counter("upager", map[string]any{"faults": s.pager.Faults, "evictions": s.pager.Evictions,
			"writeback_pages": s.pager.WritebackPages, "free_frames": s.pager.FreeFrames})
		log.counter("memnode", map[string]any{"read_ops": s.node.ReadOps, "written_pages": s.node.WriteOps})
		return s, nil
	})
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}

	perClient := make([][]opStats, clients)
	for i, c := range cs {
		perClient[i] = c.stats
	}
	tm := summarize(name, perClient, slices, 0, pl.untraced)
	all := summarize(name, perClient, slices, 0, pl.all)
	ops := all.total.ops
	first, last := snaps[0], snaps[len(snaps)-1]

	res.setTiming(setup, tm, all, "pins")
	res.set("upager.pin_us_p50", tm.p50us)
	res.set("upager.pin_us_p99", tm.p99us)

	// Since the pager was made, warm-up included: a histogram cannot be
	// subtracted, and warm-up is the same traffic.
	fl := pager.FaultLatency()
	res.set("upager.fault_us_p50", float64(fl.P50())/1e3)
	res.set("upager.fault_us_p99", float64(fl.P99())/1e3)
	a, b := first.pager, last.pager
	faults := b.Faults - a.Faults
	evictions := b.Evictions - a.Evictions
	res.set("upager.faults_per_pin", ratioOf(faults, ops))
	res.set("upager.coalesced_per_pin", ratioOf(b.Coalesced-a.Coalesced, ops))
	res.set("upager.evictions_per_fault", ratioOf(evictions, faults))
	res.set("upager.clean_drop_frac", ratioOf(b.CleanDrops-a.CleanDrops, evictions))
	res.set("upager.writeback_pages_per_batch", ratioOf(b.WritebackPages-a.WritebackPages, b.WritebackBatches-a.WritebackBatches))
	res.set("upager.free_frames_min", float64(minFree.Load()))

	res.setCounters(subStat(first.node, last.node), all, env.buildS)
	res.set("clientstack.allocs_per_pin", perOp(float64(last.mallocs-first.mallocs), ops))

	res.Attempted = ops
	if o.traced {
		traced := summarize(name, perClient, slices, pl.untraced, pl.all)
		res.set("harness.trace_overhead_frac", 1-traced.opsPerS/tm.opsPerS)
		rd, wv := log.hist(layer+".Read"), log.hist(layer+".WriteV")
		res.set(layer+".read_us_p50", float64(rd.P50())/1e3)
		res.set(layer+".read_us_p99", float64(rd.P99())/1e3)
		res.set(layer+".writev_us_p50", float64(wv.P50())/1e3)
		kept, dropped := log.kept()
		res.Notes["spans"] = fmt.Sprintf("%d %s.Read, %d %s.WriteV timed; %d spans kept for the trace (1 request in %d), %d over the cap",
			rd.Count(), layer, wv.Count(), layer, kept, sampleEvery, dropped)
		self, n := log.meanSelf("upager.Pin")
		res.set("upager.self_us_per_fault", self/1e3)
		res.Notes["self_time_pins"] = fmt.Sprint(n)
		if cluster {
			rung, err := rungRead(mn.addrs[0], o.seed, log)
			if err != nil {
				return nil, err
			}
			res.set("memnode.rung_read_us_p50", float64(rung.P50())/1e3)
			res.set("memcluster.self_us_per_read", float64(rd.P50()-rung.P50())/1e3)
		} else {
			res.set("memnode.writev_pages_per_call", ratioOf(log.pagesOf("memnode.WriteV"), wv.Count()))
		}
	}

	// Close flushes every dirty page through the same write path; an
	// error here is a lost writeback the timed part did not see.
	closed = true
	if err := pager.Close(); err != nil {
		return nil, fmt.Errorf("pager close: %w", err)
	}
	res.set("upager.writeback_errors", float64(pager.Stats().WritebackErrors))
	if o.traced {
		if err := log.writeChrome(tracePath(name), name); err != nil {
			return nil, err
		}
	}

	retries, reconnects := mn.clientEvents()
	if client != nil {
		m := client.Metrics()
		retries += m.Retries
		reconnects += m.Reconnects
		res.set("memnode.shm_connects", float64(m.ShmConnects))
		if m.ShmConnects != 1 || m.ShmFallbacks != 0 {
			return nil, fmt.Errorf("%s did not run over the shm ring: %d shm connects, %d fallbacks", name, m.ShmConnects, m.ShmFallbacks)
		}
	}
	if cl != nil {
		cst := cl.Stats()
		res.set("memcluster.failovers", float64(cst.Failovers))
		res.set("memcluster.degraded_writes", float64(cst.DegradedWrites))
	}
	res.set("memnode.client_retries", float64(retries))
	res.set("memnode.client_reconnects", float64(reconnects))
	for _, c := range cs {
		res.Failed += c.wrong
		if c.firstBad != nil && res.Notes["first_wrong_lane"] == "" {
			res.Notes["first_wrong_lane"] = c.firstBad.Error()
		}
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	res.finish()
	return res, nil
}
