package memcluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time" // the cluster's own prober options are durations

	"mage/internal/memcluster/placement"
	"mage/internal/memnode"
)

// bareCluster is a Cluster with no sockets behind it: enough for the
// loops, which reach a node only through the try/send they are handed.
func bareCluster() *Cluster {
	cl := &Cluster{regions: make(map[uint64]*cregion), closed: make(chan struct{})}
	cl.opts.fillDefaults()
	return cl
}

// bareShard builds one shard of replicas that all look dialled; reg
// gets a handle on the replicas listed in held.
func bareShard(healthy []bool, held []int) (*shard, *cregion) {
	sh := &shard{id: 1}
	for i, h := range healthy {
		sh.replicas = append(sh.replicas, &replica{addr: fmt.Sprint("r", i), c: new(memnode.Client), healthy: h})
	}
	reg := &cregion{size: 1 << 20}
	handles := make(map[*replica]uint64)
	for _, i := range held {
		handles[sh.replicas[i]] = uint64(100 + i)
	}
	reg.handles.Store(handles)
	return sh, reg
}

// TestClimbReplicateTable drives the two loops, and the climb whose
// first rung is started, with scripted results per rung: which rungs are
// asked, who is demoted, what is counted, what comes back and what
// reaches the dirty logs. A started climb must do on every row what
// climb does.
func TestClimbReplicateTable(t *testing.T) {
	boom := errors.New("connection reset")
	// A refusal from the client's own checks is the one terminal error
	// that needs no server to produce.
	_, term := new(memnode.Client).Read(0, 0, 0)
	if !memnode.IsTerminal(term) {
		t.Fatalf("%v is not terminal", term)
	}
	const handle = 7
	offs := []int64{0, 3 * 4096, 3*4096 + 100} // two pages, one of them twice
	pages := []uint64{placement.Key(handle, 0), placement.Key(handle, 3)}

	rows := []struct {
		name     string
		held     []int   // replicas holding the region; replica 2 is down and resyncing
		bare     bool    // hand the loop an empty rung list instead of an ordering's
		script   []error // result of the i-th rung asked for, in rung order
		climb    want
		replicas want // replicate's expectations
	}{
		{name: "ok", held: []int{0, 1, 2}, script: []error{nil, nil, nil},
			climb:    want{asked: 1},
			replicas: want{asked: 2}},
		{name: "non-terminal then ok", held: []int{0, 1, 2}, script: []error{boom, nil, nil},
			climb:    want{asked: 2, down: 1, failovers: 1, flaps: 1},
			replicas: want{asked: 2, down: 1, failovers: 1, flaps: 1, degraded: 1}},
		{name: "terminal on the first rung", held: []int{0, 1, 2}, script: []error{term, nil, nil},
			climb:    want{asked: 1, err: term},
			replicas: want{asked: 2, err: term}},
		{name: "terminal on the second, first acked", held: []int{0, 1, 2}, script: []error{nil, term, nil},
			climb:    want{asked: 1},
			replicas: want{asked: 2, err: term}},
		{name: "every rung failing", held: []int{0, 1, 2}, script: []error{boom, boom, boom},
			climb:    want{asked: 3, down: 2, failovers: 3, flaps: 2, err: boom, wording: "memcluster: shard 4: all replicas failed: connection reset"},
			replicas: want{asked: 2, down: 2, failovers: 2, flaps: 2, err: boom, wording: "memcluster: shard 4: all replicas failed: connection reset"}},
		{name: "no rung holds the region", held: nil,
			climb:    want{wording: "memcluster: shard 4: all replicas failed: no replica holds the region"},
			replicas: want{wording: "memcluster: shard 4: all replicas failed: no healthy replica"}},
		{name: "empty rung list", held: []int{0, 1, 2}, bare: true,
			climb:    want{wording: "memcluster: shard 4: all replicas failed: no replica holds the region"},
			replicas: want{wording: "memcluster: shard 4: all replicas failed: no healthy replica"}},
	}
	t.Run("ladder order", ladderOrderRow)
	for _, row := range rows {
		// setup builds a fresh cluster for one run: replicas 0 and 1 healthy,
		// replica 2 down with its resync log open, and a leave under way that
		// moves every page (IDs {1} -> {2}: same index, different owner).
		setup := func() (*Cluster, *shard, *cregion) {
			cl := bareCluster()
			sh, reg := bareShard([]bool{true, true, false}, row.held)
			sh.replicas[2].resyncing = true
			sh.replicas[2].dirty = make(map[uint64]struct{})
			sh.resyncCount.Store(1)
			if _, err := cl.beginMigration([]uint64{1}, []uint64{2}); err != nil {
				t.Fatal(err)
			}
			return cl, sh, reg
		}
		check := func(t *testing.T, cl *Cluster, sh *shard, rungs []rung, asked []rung, err error, w want) {
			t.Helper()
			if len(asked) != w.asked || (w.asked > 0 && !reflect.DeepEqual(asked, rungs[:w.asked])) {
				t.Errorf("asked %d rungs, want the first %d of %d", len(asked), w.asked, len(rungs))
			}
			down := 0
			for i, r := range sh.replicas[:2] {
				if !r.healthy {
					down++
					if row.script[indexOf(rungs, r)] != boom {
						t.Errorf("replica %d demoted without a non-terminal failure", i)
					}
				}
			}
			failovers, flaps, degraded := cl.stats.failovers.Load(), cl.stats.flaps.Load(), cl.stats.degradedWrites.Load()
			if down != w.down || failovers != w.failovers || flaps != w.flaps || degraded != w.degraded {
				t.Errorf("down=%d failovers=%d flaps=%d degraded=%d, want %d %d %d %d",
					down, failovers, flaps, degraded, w.down, w.failovers, w.flaps, w.degraded)
			}
			switch {
			case w.err == nil && w.wording == "":
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			case w.wording != "":
				if err == nil || err.Error() != w.wording || memnode.IsTerminal(err) {
					t.Errorf("err = %v, want %q, not terminal", err, w.wording)
				}
				if w.err != nil && !errors.Is(err, w.err) {
					t.Errorf("err = %v does not wrap %v", err, w.err)
				}
			default: // a terminal error comes back as it is
				if err != w.err {
					t.Errorf("err = %v, want %v itself", err, w.err)
				}
			}
		}

		t.Run("climb/"+row.name, func(t *testing.T) {
			cl, sh, reg := setup()
			var rungs []rung
			if !row.bare {
				rungs = cl.ladder(nil, sh, reg, pages[0])
			}
			var asked []rung
			err := cl.climb(sh, 4, rungs, nil, func(g rung) error {
				asked = append(asked, g)
				return row.script[len(asked)-1]
			})
			check(t, cl, sh, rungs, asked, err, row.climb)
			if n := len(sh.replicas[2].dirty) + len(cl.mig.dirty); n != 0 {
				t.Errorf("a read logged %d dirty pages", n)
			}
		})
		t.Run("started/"+row.name, func(t *testing.T) {
			cl, sh, reg := setup()
			var rungs []rung
			if !row.bare {
				rungs = cl.ladder(nil, sh, reg, pages[0])
			}
			var asked []rung
			try := func(g rung) error {
				asked = append(asked, g)
				return row.script[len(asked)-1]
			}
			// The first rung's hook runs on a goroutine of its own, as a node
			// client's completer runs it.
			var ends atomic.Int32
			ended := make(chan error, 2)
			cl.startClimb(sh, 4, rungs, func(g rung, hook func(error)) { go hook(try(g)) }, try, func(err error) {
				ends.Add(1)
				ended <- err
			})
			err := <-ended
			check(t, cl, sh, rungs, asked, err, row.climb)
			if n := ends.Load(); n != 1 {
				t.Errorf("end ran %d times", n)
			}
			if n := len(sh.replicas[2].dirty) + len(cl.mig.dirty); n != 0 {
				t.Errorf("a read logged %d dirty pages", n)
			}
		})
		for _, log := range []bool{true, false} {
			t.Run(fmt.Sprintf("replicate/log=%v/%s", log, row.name), func(t *testing.T) {
				cl, sh, reg := setup()
				var rungs []rung
				if !row.bare {
					rungs = holders(sh, reg, nil)
				}
				// The sends on goroutines wait for the inline one, so they
				// finish after it: replicate must still be there when they do.
				inline := make(chan struct{})
				askedAt := make([]atomic.Bool, 3)
				var finished atomic.Int32
				err := cl.replicate(sh, 4, rungs, handle, offs, log, func(g rung) error {
					i := indexOf(rungs, g.r)
					askedAt[i].Store(true)
					if i == 0 {
						close(inline)
					} else {
						<-inline
						time.Sleep(time.Millisecond)
					}
					finished.Add(1)
					return row.script[i]
				})
				if int(finished.Load()) != len(rungs) {
					t.Errorf("replicate returned with %d of %d sends finished", finished.Load(), len(rungs))
				}
				var asked []rung
				for i, g := range rungs {
					if askedAt[i].Load() {
						asked = append(asked, g)
					}
				}
				check(t, cl, sh, rungs, asked, err, row.replicas)
				var want []uint64
				if log {
					want = pages // on every row: the terminal ones and the failed ones too
				}
				for name, got := range map[string]map[uint64]struct{}{"resync": sh.replicas[2].dirty, "migration": cl.mig.dirty} {
					if len(got) != len(want) {
						t.Errorf("%s log holds %d pages, want %d", name, len(got), len(want))
					}
					for _, k := range want {
						if _, ok := got[k]; !ok {
							t.Errorf("%s log misses page key %#x", name, k)
						}
					}
				}
			})
		}
	}
}

// want is what one loop must have done on one row.
type want struct {
	asked                      int // rungs asked, from the front of the list
	down                       int // of the two healthy replicas, how many ended demoted
	failovers, flaps, degraded uint64
	err                        error  // the terminal error returned as is, or the cause wrapped
	wording                    string // the whole message of a non-terminal failure
}

func indexOf(rungs []rung, r *replica) int {
	for i, g := range rungs {
		if g.r == r {
			return i
		}
	}
	return -1
}

// ladderOrderRow pins which replica serves a key: the weighted draws
// for attempt 0..n-1 among healthy replicas, then every replica that is
// down but was dialled, in list order. The reference below is the rule
// as the code before climb wrote it.
func ladderOrderRow(t *testing.T) {
	reference := func(key uint64, reps []*replica) []*replica {
		weights := make([]int64, len(reps))
		mask := make([]bool, len(reps))
		taken := make([]bool, len(reps))
		for i, r := range reps {
			weights[i], mask[i] = r.weight, r.healthy && r.c != nil
		}
		var order []*replica
		for attempt := 0; attempt < len(reps); attempt++ {
			i := placement.SelectReplica(key, attempt, weights, mask)
			if i == -1 {
				break
			}
			taken[i], mask[i] = true, false
			order = append(order, reps[i])
		}
		for i, r := range reps {
			if !taken[i] && r.c != nil {
				order = append(order, r)
			}
		}
		return order
	}
	cl := bareCluster()
	// Five replicas: healthy with three different weights, down but
	// dialled, and down since New (never dialled: on no ladder).
	sh, reg := bareShard([]bool{true, false, true, true, false}, []int{0, 1, 2, 3, 4})
	sh.replicas[0].weight, sh.replicas[2].weight, sh.replicas[3].weight = 1<<30, 2<<30, 3<<30
	sh.replicas[4].c = nil
	firsts := make(map[*replica]int)
	for page := uint64(0); page < 512; page++ {
		key := placement.Key(9, page)
		var got []*replica
		var buf [ladderRungs]rung
		for _, g := range cl.ladder(buf[:0], sh, reg, key) {
			got = append(got, g.r)
			if h, _ := reg.handle(g.r); g.c != g.r.c || g.h != h {
				t.Fatalf("page %d: rung of %s carries the wrong client or handle", page, g.r.addr)
			}
		}
		want := reference(key, sh.replicas)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: ladder %v, the rule says %v", page, addrs(got), addrs(want))
		}
		if len(got) != 4 || got[3] != sh.replicas[1] {
			t.Fatalf("page %d: ladder %v does not end on the one down-but-dialled replica", page, addrs(got))
		}
		firsts[got[0]]++
	}
	if len(firsts) != 3 {
		t.Errorf("512 keys drew %d distinct first replicas, want all 3 healthy ones", len(firsts))
	}
	// A replica without the region is on no list, whatever its health.
	sh, reg = bareShard([]bool{true, true, false}, []int{1})
	if got := cl.ladder(nil, sh, reg, 1); len(got) != 1 || got[0].r != sh.replicas[1] {
		t.Errorf("ladder over one holder = %d rungs", len(got))
	}
	if got := holders(sh, reg, sh.replicas[1]); len(got) != 0 {
		t.Errorf("holders minus the only holder = %d rungs", len(got))
	}
}

func addrs(reps []*replica) string {
	var names []string
	for _, r := range reps {
		names = append(names, r.addr)
	}
	return strings.Join(names, " ")
}

// TestRouteParts: whatever the request, the parts route makes of it are
// each one legal node op on the shard that owns every byte in it, they
// cover the caller's buffers exactly once in request order, and a
// request one shard can serve whole is the caller's slices untouched.
func TestRouteParts(t *testing.T) {
	cl := bareCluster()
	cl.opts.PageBytes = 1 << 16
	pb := cl.opts.PageBytes
	topo := &topology{shards: []*shard{{id: 1}, {id: 2}, {id: 3}}, ids: []uint64{1, 2, 3}}
	reg := &cregion{size: 4096 * pb}
	const handle = 3
	owner := func(off int64) int {
		return placement.ShardOfIDs(placement.Key(handle, uint64(off/pb)), topo.ids)
	}
	mark := func(off int64) byte { return byte(uint64(off) * 0x9e3779b97f4a7c15 >> 56) }

	requests := map[string]func() ([]int64, [][]byte){
		"one page": func() ([]int64, [][]byte) { return []int64{5 * pb}, [][]byte{make([]byte, pb)} },
		"one straddler": func() ([]int64, [][]byte) {
			return []int64{5*pb + pb/2}, [][]byte{make([]byte, pb)}
		},
		"span of 300 pages off the grid": func() ([]int64, [][]byte) {
			return []int64{7*pb + 11}, [][]byte{make([]byte, 300*pb)}
		},
		"2000 small descriptors": func() ([]int64, [][]byte) {
			offs, bufs := make([]int64, 2000), make([][]byte, 2000)
			for i := range offs {
				offs[i], bufs[i] = int64(i)*pb+int64(i%7), make([]byte, 64)
			}
			return offs, bufs
		},
		"200 pages, some twice, some straddling": func() ([]int64, [][]byte) {
			offs, bufs := make([]int64, 200), make([][]byte, 200)
			for i := range offs {
				offs[i], bufs[i] = int64(i%150)*pb+int64(i%3)*pb/3, make([]byte, pb)
			}
			return offs, bufs
		},
	}
	for name, build := range requests {
		offsets, bufs := build()
		parts, err := cl.route(nil, topo, reg, handle, offsets, bufs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var covered int64
		for _, p := range parts {
			var bytes int64
			for i, off := range p.offs {
				n := int64(len(p.bufs[i]))
				if n == 0 || off/pb != (off+n-1)/pb || owner(off) != p.si {
					t.Fatalf("%s: entry off=%d len=%d does not lie in one page of shard %d", name, off, n, p.si)
				}
				for j := range p.bufs[i] {
					p.bufs[i][j] = mark(off + int64(j)) // a node would put the region's byte here
				}
				bytes += n
			}
			if len(p.offs) == 0 || len(p.offs) != len(p.bufs) || len(p.offs) > memnode.MaxBatchPages || bytes > memnode.MaxIO {
				t.Fatalf("%s: part of %d entries, %d bytes is not a legal node op", name, len(p.offs), bytes)
			}
			covered += bytes
		}
		var asked int64
		for i, off := range offsets {
			asked += int64(len(bufs[i]))
			for j, b := range bufs[i] {
				if b != mark(off+int64(j)) {
					t.Fatalf("%s: byte %d of descriptor %d did not get the region's byte at %d", name, j, i, off+int64(j))
				}
			}
		}
		if covered != asked {
			t.Errorf("%s: parts cover %d bytes of a %d-byte request", name, covered, asked)
		}
		if name == "one page" && (len(parts) != 1 || &parts[0].offs[0] != &offsets[0] || &parts[0].bufs[0] != &bufs[0]) {
			t.Errorf("%s: the request was re-sliced where one shard owns it whole", name)
		}
	}
	// Order within a shard is the request's: the later of two writes to
	// one page must leave last.
	offsets, bufs := make([]int64, 3000), make([][]byte, 3000)
	for i := range offsets {
		offsets[i], bufs[i] = 9*pb, []byte{byte(i), byte(i >> 8)}
	}
	parts, err := cl.route(nil, topo, reg, handle, offsets, bufs)
	if err != nil || len(parts) != 3 {
		t.Fatalf("3000 writes to one page: %d parts, err=%v", len(parts), err)
	}
	next := 0
	for _, p := range parts {
		for _, b := range p.bufs {
			if int(b[0])|int(b[1])<<8 != next {
				t.Fatalf("entry %d left out of order", next)
			}
			next++
		}
	}

	refused := map[string]func() ([]int64, [][]byte){
		"empty":      func() ([]int64, [][]byte) { return nil, nil },
		"mismatched": func() ([]int64, [][]byte) { return []int64{0, pb}, [][]byte{make([]byte, pb)} },
		"nil buffer": func() ([]int64, [][]byte) { return []int64{0, pb}, [][]byte{make([]byte, pb), nil} },
		"negative":   func() ([]int64, [][]byte) { return []int64{-1}, [][]byte{make([]byte, pb)} },
		"past the end": func() ([]int64, [][]byte) {
			return []int64{0, reg.size - pb + 1}, [][]byte{make([]byte, pb), make([]byte, pb)}
		},
		"offset that wraps": func() ([]int64, [][]byte) { return []int64{1<<63 - 1}, [][]byte{make([]byte, pb)} },
	}
	for name, build := range refused {
		offsets, bufs := build()
		if parts, err := cl.route(nil, topo, reg, handle, offsets, bufs); err == nil || parts != nil {
			t.Errorf("%s: routed into %d parts", name, len(parts))
		} else if memnode.IsTerminal(err) {
			t.Errorf("%s: %v claims to come from a node", name, err)
		}
	}
}
