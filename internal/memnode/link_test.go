package memnode

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// The link core explored: the table half of a call's life cycle (ROADMAP
// 5(c)). coreRun replays one interleaving of what the two links do to
// their calls core — a submitter entering its call, the demux looking an
// answer's ID up and dropping the call while its body lands, the body
// landed and the call completed, the poison, a watchdog tick, and IDs
// issued around it all — on a four-slot table, checking each step.
type coreOp struct {
	kind byte // 'e' enter, 'r' answer looked up (body landing), 'l' landed, 'p' poison, 't' tick, 'x' an ID issued and dropped
	c    int  // the call of e, r and l
}

func (o coreOp) String() string { return fmt.Sprintf("%c%d", o.kind, o.c) }

type coreRun struct {
	t        calls
	calls    []*call
	phase    []int  // 0 not started, 1 held, 2 landing, 3 completed
	handed   []bool // the poison handed it back
	answered []bool // its answer has been looked up
	landing  int    // the call whose body is landing; -1: none
	poisoned bool
	ticks    int
	churns   int
}

func newCoreRun(n int, idSrc uint64, now time.Time) *coreRun {
	r := &coreRun{
		t:        calls{slots: make([]*call, 4), idSrc: idSrc},
		phase:    make([]int, n),
		handed:   make([]bool, n),
		answered: make([]bool, n),
		landing:  -1,
	}
	for i := 0; i < n; i++ {
		ca := &call{op: opRead}
		if i > 0 { // call 0 is a submitter still polling: no deadline
			ca.deadline = now
		}
		r.calls = append(r.calls, ca)
	}
	return r
}

func (r *coreRun) enabled() []coreOp {
	var ops []coreOp
	for i, ph := range r.phase {
		switch {
		case ph == 0:
			ops = append(ops, coreOp{'e', i})
		case ph == 2:
			ops = append(ops, coreOp{'l', i})
		}
		if r.landing < 0 && !r.answered[i] && (ph == 1 || r.handed[i]) {
			ops = append(ops, coreOp{'r', i})
		}
	}
	if !r.poisoned {
		ops = append(ops, coreOp{kind: 'p'})
		if r.ticks < 2 {
			ops = append(ops, coreOp{kind: 't'})
		}
	}
	if r.churns < 2 {
		ops = append(ops, coreOp{kind: 'x'})
	}
	return ops
}

// heldIDs is the IDs of the calls the table holds.
func (r *coreRun) heldIDs() map[uint64]bool {
	ids := make(map[uint64]bool)
	for i, ph := range r.phase {
		if ph == 1 {
			ids[r.calls[i].id] = true
		}
	}
	return ids
}

func (r *coreRun) do(op coreOp, late time.Time) error {
	t := &r.t
	switch op.kind {
	case 'e', 'x':
		ca, held := &call{op: opRead}, r.heldIDs()
		if op.kind == 'e' {
			ca = r.calls[op.c]
		}
		t.mu.Lock()
		err := t.enterLocked(ca)
		found := t.lookupLocked(ca.id)
		if err == nil && op.kind == 'x' {
			t.dropLocked(ca)
		}
		t.mu.Unlock()
		switch {
		case (err != nil) != r.poisoned:
			return fmt.Errorf("enter on a table poisoned=%v: %v", r.poisoned, err)
		case err == nil && held[ca.id]:
			return fmt.Errorf("ID %d issued again while its call is held", ca.id)
		case err == nil && found != ca:
			return fmt.Errorf("ID %d does not look up its call", ca.id)
		}
		if op.kind == 'x' {
			r.churns++
			return nil
		}
		if err != nil {
			ca.fail(err)
			r.phase[op.c] = 3
			return nil
		}
		r.phase[op.c] = 1
	case 'r':
		ca := r.calls[op.c]
		t.mu.Lock()
		found := t.lookupLocked(ca.id)
		if found != nil {
			t.dropLocked(found)
			t.landing = found
		}
		t.mu.Unlock()
		r.answered[op.c] = true
		if r.phase[op.c] != 1 {
			if found != nil {
				return fmt.Errorf("the answer of call %d, handed back by the poison, found a call", op.c)
			}
			return nil
		}
		if found != ca {
			return fmt.Errorf("the answer of held call %d found %p", op.c, found)
		}
		r.phase[op.c], r.landing = 2, op.c
	case 'l':
		t.mu.Lock()
		t.landing = nil
		t.mu.Unlock()
		r.calls[op.c].complete()
		r.phase[op.c], r.landing = 3, -1
	case 't':
		r.ticks++
		over, _ := t.overdue(late)
		want := r.landing > 0 // call 0 carries no deadline
		for i, ph := range r.phase {
			want = want || (ph == 1 && i > 0)
		}
		if over != want {
			return fmt.Errorf("overdue = %v with phases %v, landing %d", over, r.phase, r.landing)
		}
		if over {
			return r.poison(errOverdue)
		}
	case 'p':
		return r.poison(ErrClosed)
	}
	return nil
}

// poison is the link's fail, short of a socket.
func (r *coreRun) poison(err error) error {
	held, first := r.t.poison(err)
	if !first {
		return errors.New("a second poison of the table")
	}
	r.poisoned = true
	want := r.heldIDs()
	if len(held) != len(want) {
		return fmt.Errorf("poison handed back %d calls, the table held %d", len(held), len(want))
	}
	for _, ca := range held {
		i := r.index(ca)
		if i < 0 || r.phase[i] != 1 {
			return fmt.Errorf("poison handed back a call it did not hold (call %d)", i)
		}
		ca.fail(err)
		r.phase[i], r.handed[i] = 3, true
	}
	return nil
}

func (r *coreRun) index(ca *call) int {
	for i, c := range r.calls {
		if c == ca {
			return i
		}
	}
	return -1
}

func (r *coreRun) key() string {
	flag := func(f bool) byte {
		if f {
			return 1
		}
		return 0
	}
	b := []byte{byte(r.landing + 1), byte(r.ticks), byte(r.churns), byte(r.t.idSrc), flag(r.poisoned)}
	for i, ca := range r.calls {
		b = append(b, byte(r.phase[i]), byte(ca.id), flag(r.handed[i]), flag(r.answered[i]))
	}
	for _, ca := range r.t.slots {
		b = append(b, byte(r.index(ca)+1))
	}
	return string(b)
}

// TestCallsCoreExplored enumerates every interleaving of enter, lookup +
// drop with a landing body, poison and watchdog tick, over one to three
// calls (one of them without a deadline) and IDs issued around them on a
// four-slot table, from each of the table's four phases. It checks that
// each call completes exactly once (a second completion panics), that the
// poison hands back exactly the calls held and never a dropped one, that
// no ID is reused while its call is held, and that the watchdog finds
// late exactly the held or landing calls that carry a deadline — an idle
// table never.
func TestCallsCoreExplored(t *testing.T) {
	now := time.Now()
	late := now.Add(time.Hour)
	states, ends := 0, 0
	for n := 1; n <= 3; n++ {
		for idSrc := uint64(0); idSrc < 4; idSrc++ {
			seen := make(map[string]bool)
			var visit func(path []coreOp)
			visit = func(path []coreOp) {
				r := newCoreRun(n, idSrc, now)
				for i, op := range path {
					if err := r.do(op, late); err != nil {
						t.Fatalf("%d calls from ID %d, after %v: %v: %v", n, idSrc, path[:i], op, err)
					}
				}
				k := r.key()
				if seen[k] {
					return
				}
				seen[k] = true
				next := r.enabled()
				if len(next) == 0 {
					for i, ca := range r.calls {
						if !ca.completed() || r.phase[i] != 3 {
							t.Fatalf("%d calls from ID %d, after %v: call %d never completed", n, idSrc, path, i)
						}
					}
					ends++
				}
				for _, op := range next {
					visit(append(path[:len(path):len(path)], op))
				}
			}
			visit(nil)
			states += len(seen)
		}
	}
	t.Logf("%d states, %d of them final", states, ends)
}

// TestHeldCallKeepsItsSlot: on a TCP stream and on the file link's, a
// call the table holds while twice the table's size in IDs is issued
// around it keeps its slot and its ID, and completes with its answer,
// sent only then. On the file link the region is detached, so that the
// reads ride the frames and take IDs.
func TestHeldCallKeepsItsSlot(t *testing.T) {
	for _, shm := range []bool{false, true} {
		if shm && !ShmSupported {
			continue
		}
		srv, err := NewServerOptions("127.0.0.1:0", 16<<20, ServerOptions{EnableShm: shm})
		if err != nil {
			t.Fatal(err)
		}
		opts := fastOpts()
		opts.Window = 8
		if !shm {
			opts.Transport = TransportTCP
		}
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Register(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		kind := c.TransportKind()
		st, err := c.getStream()
		if err != nil {
			t.Fatal(err)
		}
		if shm {
			detach(t, c, id)
		}
		core := &st.calls
		held := &call{op: opRead, srvID: id, length: 4096, deadline: time.Now().Add(time.Minute)}
		core.mu.Lock()
		if err := core.enterLocked(held); err != nil {
			t.Fatal(err)
		}
		slot := held.id & uint64(len(core.slots)-1)
		core.mu.Unlock()
		n := 2 * len(core.slots)
		for i := 0; i < n; i++ {
			body, err := c.Read(id, int64(i%256)*4096, 4096)
			if err != nil {
				t.Fatalf("%s: read %d: %v", kind, i, err)
			}
			PutBuf(body)
		}
		core.mu.Lock()
		kept, passed := core.slots[slot] == held && core.lookupLocked(held.id) == held, core.idSrc-held.id
		core.mu.Unlock()
		if !kept || passed < uint64(n) {
			t.Fatalf("%s: held call kept its slot: %v, with %d IDs issued since (want %d)", kind, kept, passed, n)
		}
		st.sendq <- held
		held.wait()
		if held.err != nil || len(held.body) != 4096 {
			t.Fatalf("%s: the held call's answer: %d bytes, %v", kind, len(held.body), held.err)
		}
		PutBuf(held.body)
		c.Close()
		srv.Close()
	}
}

// TestWatchdogTimesOutWithheldCall: against a peer that swallows
// requests, the watchdog fails a started READV — which nobody waits for —
// within 1.5 × IOTimeout on either link, and counts the timeout.
func TestWatchdogTimesOutWithheldCall(t *testing.T) {
	for _, shm := range []bool{false, true} {
		if shm && !ShmSupported {
			continue
		}
		opts := fastOpts()
		opts.IOTimeout = 400 * time.Millisecond
		opts.MaxAttempts = 1
		c, release := withheld(t, shm, opts)
		kind := c.TransportKind()
		hk := newHooks(1)
		buf := make([]byte, 2*4096)
		start := time.Now()
		c.StartReadVInto(1, []int64{0, 4096}, SplitPages(buf, 4096), hk.hook(0))
		hk.wait(t, 1, 10*time.Second)
		if took, limit := time.Since(start), opts.IOTimeout*3/2; took > limit {
			t.Errorf("%s: the READV failed after %v, want within %v", kind, took, limit)
		}
		var ne net.Error
		if m := c.Metrics(); m.Timeouts != 1 || !errors.As(hk.errs[0], &ne) || !ne.Timeout() {
			t.Errorf("%s: %d timeouts counted, the READV ended in %v; want one timeout, counted", kind, m.Timeouts, hk.errs[0])
		}
		hk.once(t)
		c.Close()
		release()
	}
}

// TestWindowCapped: a Window past maxWindow is cut to it, whose call
// table is the largest there is, and 4,100 reads in flight at once — a
// window's worth on the link and a dozen queued at the client — all
// complete.
func TestWindowCapped(t *testing.T) {
	srv := newShmServer(t, 64<<20)
	defer srv.Close()
	opts := fastOpts()
	opts.Window = 10000
	c, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.opts.Window != maxWindow || tableSize(c.opts.Window) != maxTable {
		t.Fatalf("Window 10000 became %d, a table of %d; want %d and %d", c.opts.Window, tableSize(c.opts.Window), maxWindow, maxTable)
	}
	id, err := c.Register(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind = %q, want shm", got)
	}
	const n = 4100
	pend := make([]*Pending, n)
	for i := range pend {
		pend[i] = c.ReadAsync(id, int64(i%4096)*4096, 4096)
	}
	for i, p := range pend {
		body, err := p.Wait()
		if err != nil || len(body) != 4096 {
			t.Fatalf("read %d of %d: %d bytes, %v", i, n, len(body), err)
		}
		PutBuf(body)
	}
}
