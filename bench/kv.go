package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
)

// kv-local and kv-far: the harness speaks magecache's text protocol
// over its real socket. The two differ only in -ratio, so the
// difference between them is the cost of far memory.

const (
	kvSetFrac = 0.10
	// kvWarmOps is the warm-up per connection. It is a count, not a
	// time: every SET relocates its value, so the slab layout a window
	// sees depends on how many ops came before it.
	kvWarmOps = 32768
	rttOps    = 20000                // depth-1 GETs, then SETs, of a traced run
	rttKeys   = 64                   // few enough to stay resident at 8:1
	probeGap  = 5 * time.Millisecond // 200 probe reads per second
)

type kvClient struct {
	id    int
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	gen   *opGen
	win   [kvWindow]op
	body  []byte // reply scratch, largest value plus its newline
	req   []byte // request scratch
	stats []opStats

	spans      *spanLog // nil unless the run is traced
	tracedFrom int32    // first traced slice

	wrong    uint64 // wrong replies, in a timed slice or not (preload, warm-up, rtt)
	firstBad error
}

func dialKV(addr string, id int, seed int64, nSlices int) (*kvClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &kvClient{
		id:   id,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 32<<10),
		// A window of 16 SETs is up to 17 KiB; the buffer holds it so a
		// window is one flush, as 16 application threads sharing one
		// connection would produce.
		w:          bufio.NewWriterSize(conn, 32<<10),
		gen:        newOpGen(seed, id, kvKeys, kvSetFrac),
		body:       make([]byte, 1025),
		stats:      newSliceStats(nSlices),
		tracedFrom: noTrace,
	}, nil
}

// exchange sends ops in one flush and reads their replies, checking
// each against the value model. st may be nil (preload, warm-up). An
// op's latency runs from the flush to its own reply. The error return
// is for a broken conversation; a wrong reply is counted, not returned.
func (c *kvClient) exchange(ops []op, st *opStats, genStart time.Time) (sent time.Time, err error) {
	for _, o := range ops {
		c.req = c.req[:0]
		if o.write {
			c.req = append(c.req, "set "...)
			c.req = appendKey(c.req, o.id)
			c.req = append(c.req, ' ')
			c.req = strconv.AppendInt(c.req, int64(valLen(o.id)), 10)
			c.req = append(c.req, '\n')
			c.req = appendValue(c.req, o.id)
			c.req = append(c.req, '\n')
		} else {
			c.req = append(c.req, "get "...)
			c.req = appendKey(c.req, o.id)
			c.req = append(c.req, '\n')
		}
		if _, err := c.w.Write(c.req); err != nil {
			return sent, err
		}
	}
	sent = time.Now()
	if st != nil {
		st.genNs += sent.Sub(genStart).Nanoseconds()
	}
	if err := c.w.Flush(); err != nil {
		return sent, err
	}
	for _, o := range ops {
		hit, bad, err := c.readReply(o)
		if err != nil {
			return sent, err
		}
		lat := time.Since(sent).Nanoseconds()
		if bad != nil {
			c.wrong++
			if c.firstBad == nil {
				c.firstBad = bad
			}
		}
		if st == nil {
			continue
		}
		st.ops++
		st.lat.Record(lat)
		if !o.write {
			st.gets++
			if hit {
				st.hits++
			}
		}
		if bad != nil {
			st.failed++
		}
	}
	return sent, nil
}

// readReply consumes one reply. bad is non-nil when the reply is not
// what the value model says it must be: every key is preloaded and the
// heap holds them all, so a MISS is as wrong as a flipped byte.
func (c *kvClient) readReply(o op) (hit bool, bad, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, nil, fmt.Errorf("client %d: read reply: %w", c.id, err)
	}
	if o.write {
		if !bytes.Equal(line, []byte("STORED\n")) {
			return false, fmt.Errorf("set key %d: reply %q", o.id, line), nil
		}
		return false, nil, nil
	}
	rest, ok := bytes.CutPrefix(line, []byte("VALUE "))
	if !ok {
		return false, fmt.Errorf("get key %d: reply %q", o.id, line), nil
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(rest)))
	if err != nil || n < 0 || n >= len(c.body) {
		return false, nil, fmt.Errorf("client %d: get key %d: unusable length in %q", c.id, o.id, line)
	}
	if _, err := io.ReadFull(c.r, c.body[:n+1]); err != nil {
		return false, nil, fmt.Errorf("client %d: read value: %w", c.id, err)
	}
	return true, checkValue(o.id, c.body[:n]), nil
}

// run is one closed-loop client: a fixed warm-up, then windows of 16
// requests in whatever slice the clock says, parking whenever it
// pauses, which it does first of all until every client is warm.
func (c *kvClient) run(clk *phaseClock) error {
	step := func(st *opStats, traced bool) error {
		genStart := time.Now()
		for i := range c.win {
			c.win[i] = c.gen.next()
		}
		sent, err := c.exchange(c.win[:], st, genStart)
		if traced {
			c.spans.add("kv.window", c.id, sent, time.Now(), 0, kvWindow)
		}
		return err
	}
	for done := 0; done < kvWarmOps; done += kvWindow {
		if err := step(nil, false); err != nil {
			return err
		}
	}
	for {
		switch ph := clk.cur.Load(); ph {
		case phaseStop:
			return nil
		case phasePause:
			clk.park()
		default:
			if err := step(&c.stats[ph], ph >= c.tracedFrom); err != nil {
				return err
			}
		}
	}
}

// preload stores this client's share of the key space.
func (c *kvClient) preload() error {
	var batch []op
	for k := c.id; k < kvKeys; k += clients {
		batch = append(batch, op{id: uint32(k), write: true})
		if len(batch) == kvWindow || k+clients >= kvKeys {
			if _, err := c.exchange(batch, nil, time.Time{}); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}

// rtt issues n depth-1 requests over a few resident keys and returns
// their round-trip histogram: the front end's own latency with no
// window to hide in.
func (c *kvClient) rtt(seed int64, n int, write bool, name string) (*stats.Histogram, error) {
	rng := rand.New(rand.NewSource(clientSeed(seed, 100)))
	keys := make([]uint32, rttKeys)
	for i := range keys {
		keys[i] = uint32(rng.Intn(kvKeys))
	}
	st := newSliceStats(1)
	for i := 0; i < n; i++ {
		one := []op{{id: keys[i%rttKeys], write: write}}
		sent, err := c.exchange(one, &st[0], time.Now())
		if err != nil {
			return nil, err
		}
		c.spans.add(name, c.id, sent, time.Now(), 0, 1)
	}
	return st[0].lat, nil
}

// probeReads reads pages of a harness-owned 1 MiB region 200 times a
// second during the traced slices: the queueing a far read meets at the
// memnode under this workload's load.
func probeReads(clk *phaseClock, tracedFrom int32, c *memnode.Client, seed int64, spans *spanLog) (*stats.Histogram, error) {
	const region = 1 << 20
	handle, err := c.Register(region)
	if err != nil {
		return nil, fmt.Errorf("probe region: %w", err)
	}
	rng := rand.New(rand.NewSource(clientSeed(seed, 101)))
	h := stats.NewHistogram()
	tick := time.NewTicker(probeGap)
	defer tick.Stop()
	for range tick.C {
		ph := clk.cur.Load()
		if ph == phaseStop {
			return h, nil
		}
		if ph < tracedFrom {
			continue
		}
		off := int64(rng.Intn(region/pageBytes)) * pageBytes
		t0 := time.Now()
		body, err := c.Read(handle, off, pageBytes)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("probe read: %w", err)
		}
		memnode.PutBuf(body)
		h.Record(t1.Sub(t0).Nanoseconds())
		spans.add("memnode.probe_read", clients, t0, t1, 0, 1)
	}
	return h, nil
}

func runKV(ctx context.Context, env *benchEnv, name string, heapRatio int, o runOpts) (*result, error) {
	res := newResult(name, o.seed, o.traced)
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	defer st.close()

	pl := o.plan()
	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}

	// A failing client cancels the run; cancellation closes the
	// connections, which unblocks the others.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	ref, err := st.startRef(ctx)
	if err != nil {
		return nil, err
	}
	setup, err := startSetup(name, ref)
	if err != nil {
		return nil, err
	}
	mn, err := st.spawnMemnode(ctx, env.bins["memnode"], 1, 512, "tcp")
	if err != nil {
		return nil, err
	}
	cache, addr, err := st.spawnMagecache(ctx, env.bins["magecache"], mn.addrs[0], heapRatio)
	if err != nil {
		return nil, err
	}
	cs := make([]*kvClient, clients)
	for i := range cs {
		c, err := dialKV(addr, i, o.seed, pl.all)
		if err != nil {
			return nil, err
		}
		stop := context.AfterFunc(ctx, func() { c.conn.Close() })
		st.onClose(func() { stop(); c.conn.Close() })
		c.spans, c.tracedFrom = spans, pl.tracedFrom
		cs[i] = c
	}
	if err := setup.stage(); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	launch := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				cancel(err)
			}
		}()
	}
	for _, c := range cs {
		launch(c.preload)
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := setup.stage(); err != nil {
		return nil, err
	}

	clk := newPhaseClock(clients)
	defer clk.resume(phaseStop) // whatever ends the run, no client stays parked
	for _, c := range cs {
		launch(func() error { return c.run(clk) })
	}
	var probeHist *stats.Histogram
	if o.traced {
		pc, err := memnode.DialOptions(mn.addrs[0], memnode.Options{Transport: memnode.TransportTCP})
		if err != nil {
			return nil, err
		}
		st.onClose(func() { pc.Close() })
		launch(func() (err error) {
			probeHist, err = probeReads(clk, pl.tracedFrom, pc, o.seed, spans)
			return err
		})
	}
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
		if t["magecache"], err = procCPU(cache.pid()); err != nil {
			return nil, err
		}
		if t["memnode"], err = procCPU(mn.d.pid()); err != nil {
			return nil, err
		}
		return t, nil
	}
	snaps, slices, werr := runSlices(ctx, clk, ref, pl.segs, cpu, func(int) (snap, error) {
		var s snap
		var err error
		if s.node, err = mn.stat(); err != nil {
			return s, err
		}
		spans.counter("memnode", map[string]any{"read_ops": s.node.ReadOps, "written_pages": s.node.WriteOps})
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
	first, last := snaps[0], snaps[len(snaps)-1]

	res.setTiming(setup, tm, all, "ops")
	rss, err := procPeakRSS(cache.pid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	far := subStat(first.node, last.node)
	if probeHist != nil {
		// The probe's own reads went through the same STAT counters.
		far.reads -= probeHist.Count()
		far.bytes -= probeHist.Count() * pageBytes
	}
	res.setCounters(far, all, env.buildS)
	res.set("magecache.hit_frac", ratioOf(all.total.hits, all.total.gets))
	// magecache's own client is out of reach; the daemon offers TCP
	// only, so TCP v2 is what it negotiated, as the harness's did.
	res.Notes["transport"] = "memnode -transport tcp; harness stat client negotiated " + mn.statters[0].TransportKind()

	res.Attempted = all.total.ops
	if o.traced {
		traced := summarize(name, perClient, slices, pl.untraced, pl.all)
		res.set("harness.trace_overhead_frac", 1-traced.opsPerS/tm.opsPerS)
		res.set("memnode.probe_read_us_p50", float64(probeHist.P50())/1e3)
		res.set("memnode.probe_read_us_p99", float64(probeHist.P99())/1e3)
		res.Notes["probe_reads"] = fmt.Sprint(probeHist.Count())
		for _, p := range []struct {
			write bool
			verb  string
		}{{false, "get"}, {true, "set"}} {
			h, err := cs[0].rtt(o.seed, rttOps, p.write, "magecache."+p.verb+"_rtt")
			if err != nil {
				return nil, err
			}
			res.set("magecache."+p.verb+"_rtt_us_p50", float64(h.P50())/1e3)
			res.Attempted += h.Count()
		}
		if err := spans.writeChrome(tracePath(name), name); err != nil {
			return nil, err
		}
	}
	// A wrong reply fails the run wherever it came: preload, warm-up and
	// rtt are checked like the timed slices.
	for _, c := range cs {
		res.Failed += c.wrong
		if c.firstBad != nil && res.Notes["first_wrong_reply"] == "" {
			res.Notes["first_wrong_reply"] = c.firstBad.Error()
		}
	}
	retries, reconnects := mn.clientEvents()
	res.set("memnode.client_retries", float64(retries))
	res.set("memnode.client_reconnects", float64(reconnects))
	res.finish()
	return res, nil
}
