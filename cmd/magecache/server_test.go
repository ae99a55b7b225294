package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memBacking is an in-process far memory that counts its reads as the
// wire carries them — a read of one page, a demand fault's, is a READ
// whichever method asked for it, and a batch of more a READV — so
// connection-loop tests and the fuzzer need no memnode.
type memBacking struct {
	mu     sync.Mutex
	mem    []byte
	reads  atomic.Uint64
	readvs atomic.Uint64

	// A non-nil gate holds every read on the wire, after it has signalled
	// entered, until the test closes it.
	gate, entered chan struct{}
}

func (b *memBacking) Register(size int64) (uint64, error) {
	b.mem = make([]byte, size)
	return 1, nil
}

func (b *memBacking) Read(_ uint64, off, n int64) ([]byte, error) {
	b.reads.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.mem[off:off+n]...), nil
}

func (b *memBacking) Write(_ uint64, off int64, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	copy(b.mem[off:], data)
	return nil
}

// ReadVInto is the pager's read into its frames, a demand fault's page
// or a batch; like memnode's it allocates nothing.
func (b *memBacking) ReadVInto(_ uint64, offs []int64, dst [][]byte) error {
	if len(dst) == 1 {
		b.reads.Add(1)
	} else {
		b.readvs.Add(1)
	}
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, off := range offs {
		copy(dst[i], b.mem[off:])
	}
	return nil
}

// StartReadVInto runs ReadVInto on a goroutine of its own, which makes
// the fake far, as memnode's client is: the pager reads through
// ReadVInto, not through its adapter's allocating Read and ReadV.
func (b *memBacking) StartReadVInto(h uint64, offs []int64, dst [][]byte, done func(error)) {
	go func() { done(b.ReadVInto(h, offs, dst)) }()
}

func (b *memBacking) ReadV(h uint64, offs []int64, n int64) ([][]byte, error) {
	out := make([][]byte, len(offs))
	for i := range out {
		out[i] = make([]byte, n)
	}
	return out, b.ReadVInto(h, offs, out)
}

func (b *memBacking) WriteV(_ uint64, offs []int64, pages [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, off := range offs {
		copy(b.mem[off:], pages[i])
	}
	return nil
}

func newMemCache(t testing.TB, heapPages uint64, frames int) (*Cache, *memBacking) {
	t.Helper()
	b := &memBacking{}
	c, err := NewCache(b, heapPages, frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, b
}

// pipeConn serves one end of a net.Pipe and returns the other, with a
// deadline so that a server that withholds a reply fails the test
// instead of hanging it.
func pipeConn(t testing.TB, c *Cache) net.Conn {
	conn, _ := pipeConnDone(t, c)
	return conn
}

// pipeConnDone is pipeConn for a test that closes the connection itself
// and must know when the server's loop has returned.
func pipeConnDone(t testing.TB, c *Cache) (net.Conn, <-chan struct{}) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		handleConn(server, c)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	client.SetDeadline(time.Now().Add(10 * time.Second))
	return client, done
}

// readReplies reads n replies off r, one string each ("VALUE 5\nhello\n"
// is one reply).
func readReplies(t testing.TB, r *bufio.Reader, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d of %d: %v (so far %q)", len(out)+1, n, err, out)
		}
		var ln int
		if _, err := fmt.Sscanf(line, "VALUE %d\n", &ln); err == nil {
			body := make([]byte, ln+1)
			if _, err := io.ReadFull(r, body); err != nil {
				t.Fatalf("reply %d: value body: %v", len(out)+1, err)
			}
			line += string(body)
		}
		out = append(out, line)
	}
	return out
}

func setReq(key, val string) string { return fmt.Sprintf("set %s %d\n%s\n", key, len(val), val) }
func valueReply(val string) string  { return fmt.Sprintf("VALUE %d\n%s\n", len(val), val) }

// replies is n copies of one reply.
func replies(reply string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = reply
	}
	return out
}

// TestWindowOneWrite: sixteen mixed requests arriving in one write come
// back as sixteen replies in order, requests see the window's own
// earlier writes, and every page the window misses on — under the values
// its GETs read and under the cells its three SETs fill — was faulted by
// the look-ahead in one batched read, none of them alone.
func TestWindowOneWrite(t *testing.T) {
	c, back := newMemCache(t, 256, 64)
	// One value each of classes 64, 104 and 200, on heap pages 0, 1 and
	// 2: the cells the window's SETs will reserve are their neighbours.
	for _, n := range []int{5, 100, 200} {
		if err := c.Set(fmt.Sprintf("seed%d", n), bytes.Repeat([]byte{'s'}, n)); err != nil {
			t.Fatal(err)
		}
	}
	// 400 values of class 1024, four to a page: 100 more heap pages under
	// 64 frames, so the seeds' pages and the oldest keys' are long evicted.
	old := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), 820+i%200) }
	for i := 0; i < 400; i++ {
		if err := c.Set(fmt.Sprintf("old%d", i), []byte(old(i))); err != nil {
			t.Fatal(err)
		}
	}
	for c.Pager().Stats().FreeFrames < 6 { // the evictor is on its way to its low-water mark of 8
		runtime.Gosched()
	}
	reads0, readvs0 := back.reads.Load(), back.readvs.Load()
	s0 := c.Pager().Stats()

	second := strings.Repeat("2", 100)
	third := strings.Repeat("3", 200)
	window := []struct{ req, want string }{
		{"get old0\n", valueReply(old(0))}, // pages 3, 4, 5: absent
		{"get old4\n", valueReply(old(4))},
		{"get old8\n", valueReply(old(8))},
		{setReq("k", "first"), "STORED\n"}, // a class-64 cell on page 0: absent
		{"get k\n", valueReply("first")},
		{setReq("k", second), "STORED\n"}, // class 104, page 1: absent
		{"get k\n", valueReply(second)},
		{"del old4\n", "DELETED\n"},
		{"get old4\n", "MISS\n"},
		{"del old4\n", "MISS\n"},
		{"get nothing\n", "MISS\n"},
		{"bogus\n", "ERR unknown verb \"bogus\"\n"},
		{"get\n", "ERR get wants 1 arg\n"},
		{setReq("old0", third), "STORED\n"}, // class 200, page 2: absent
		{"get old0\n", valueReply(third)},
		{"get old1\n", valueReply(old(1))}, // page 3 again
	}
	var all strings.Builder
	for _, w := range window {
		all.WriteString(w.req)
	}
	conn := pipeConn(t, c)
	go io.WriteString(conn, all.String()) // one write; the pipe hands it over as the server reads
	got := readReplies(t, bufio.NewReader(conn), len(window))
	for i, w := range window {
		if got[i] != w.want {
			t.Errorf("reply %d to %q = %q, want %q", i, w.req, got[i], w.want)
		}
	}
	if rv := back.readvs.Load() - readvs0; rv != 1 {
		t.Errorf("the window's absent pages cost %d batched reads, want 1", rv)
	}
	if r := back.reads.Load() - reads0; r != 0 {
		t.Errorf("%d single reads beside the batch, want none", r)
	}
	s := c.Pager().Stats()
	if f, ahead := s.Faults-s0.Faults, s.FaultsAhead-s0.FaultsAhead; f != 6 || ahead != 6 {
		t.Errorf("%d faults, %d of them in the batch; want the 6 absent pages, all batched", f, ahead)
	}
}

// TestHalfSentRequest: a client that has sent one request and half of
// the next gets the first reply before it sends the rest. A server that
// flushes only when its read buffer is empty would sit on that reply
// while it waits for the second half, and the two would deadlock.
func TestHalfSentRequest(t *testing.T) {
	c, _ := newMemCache(t, 64, 8)
	if err := c.Set("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	conn := pipeConn(t, c)
	r := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, "get a\nset b 4\nbr"); err != nil {
		t.Fatal(err)
	}
	if got := readReplies(t, r, 1); got[0] != valueReply("alpha") {
		t.Fatalf("first reply %q", got[0])
	}
	if _, err := io.WriteString(conn, "vo\nget b\n"); err != nil {
		t.Fatal(err)
	}
	got := readReplies(t, r, 2)
	if got[0] != "STORED\n" || got[1] != valueReply("brvo") {
		t.Fatalf("replies after the second half: %q", got)
	}
}

// TestProtocolLimits: what the doc comment promises about oversized and
// malformed requests.
func TestProtocolLimits(t *testing.T) {
	longKey := strings.Repeat("k", maxKeyLen+1)
	okKey := strings.Repeat("k", maxKeyLen)
	for _, tc := range []struct {
		name, send string
		want       []string
		closes     bool
	}{
		{"longest key", setReq(okKey, "v") + "get " + okKey + "\n", []string{"STORED\n", valueReply("v")}, false},
		{"key too long, stream stays in step", "get " + longKey + "\n" + setReq(longKey, "get a\n") + "del " + longKey + "\nget a\n",
			[]string{"ERR key too long\n", "ERR key too long\n", "ERR key too long\n", "MISS\n"}, false},
		{"line never ends", strings.Repeat("x", maxLineLen), []string{"ERR line too long\n"}, true},
		{"line too long", "get " + strings.Repeat("x", maxLineLen) + "\n", []string{"ERR line too long\n"}, true},
		{"value too large", "set a 4097\n", []string{"ERR bad length\n"}, true},
		{"length not a number", "set a -1\n", []string{"ERR bad length\n"}, true},
		{"set without a length", "set a\nget a\n", []string{"ERR set wants 2 args\n"}, true},
		{"payload runs on", "set a 3\nabcd\n", []string{"ERR set payload not followed by newline\n"}, true},
		{"largest value", setReq("a", strings.Repeat("v", pageBytes)), []string{"STORED\n"}, false},
		{"empty lines and blanks", "\n  \r\n\tget   a \r\n", []string{"MISS\n"}, false},
		{"quit", "get a\nquit\nget a\n", []string{"MISS\n"}, true},
		{"window ends in a fatal request", setReq("a", "abc") + "get a\nget b\nset a\nget a\n",
			[]string{"STORED\n", valueReply("abc"), "MISS\n", "ERR set wants 2 args\n"}, true},
		{"replies overflow the write buffer", setReq("a", strings.Repeat("v", pageBytes)) + strings.Repeat("get a\n", 10),
			append([]string{"STORED\n"}, replies(valueReply(strings.Repeat("v", pageBytes)), 10)...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newMemCache(t, 64, 8)
			conn := pipeConn(t, c)
			go io.WriteString(conn, tc.send)
			r := bufio.NewReader(conn)
			got := readReplies(t, r, len(tc.want))
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("reply %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
			if !tc.closes {
				return
			}
			if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
				t.Errorf("connection not closed after the last reply: read %q, %v", rest, err)
			}
		})
	}
}

// TestGetHitZeroAllocs pins the hit path of a GET — parse, index,
// pin, copy, revalidate, reply — at zero allocations.
func TestGetHitZeroAllocs(t *testing.T) {
	c, _ := newMemCache(t, 64, 64)
	if err := c.Set("k0123456789a", bytes.Repeat([]byte{7}, 900)); err != nil {
		t.Fatal(err)
	}
	cs := &connState{c: c, w: bufio.NewWriterSize(io.Discard, connBuf), val: make([]byte, 0, pageBytes)}
	line := []byte("get k0123456789a\n")
	hits := 0
	allocs := testing.AllocsPerRun(1000, func() {
		req, _, ok := parseRequest(line)
		if ok && cs.handle(req) {
			hits++
		}
	})
	if allocs != 0 {
		t.Errorf("GET hit path allocates %.1f times per request, want 0", allocs)
	}
	if s := c.Stats(); hits != 1001 || s.Misses != 0 {
		t.Errorf("%d requests handled, %d misses", hits, s.Misses)
	}
}

// TestSetZeroAllocs pins a SET that overwrites a resident key — parse,
// cell, pin, copy, publish, reply — at zero allocations: the index copies
// a key's bytes when the key is new, and rewrites its record in place
// when it is not. The key is longer than the 32 bytes a string
// conversion could borrow from the stack.
func TestSetZeroAllocs(t *testing.T) {
	c, _ := newMemCache(t, 64, 64)
	key := "k0123456789abcdef0123456789abcdef0123456"
	if err := c.Set(key, bytes.Repeat([]byte{7}, 900)); err != nil {
		t.Fatal(err)
	}
	cs := &connState{c: c, w: bufio.NewWriterSize(io.Discard, connBuf), val: make([]byte, 0, pageBytes)}
	val := strings.Repeat("v", 900)
	line := []byte(setReq(key, val))
	stored := 0
	allocs := testing.AllocsPerRun(1000, func() {
		req, _, ok := parseRequest(line)
		if ok && cs.handle(req) {
			stored++
		}
	})
	if allocs != 0 {
		t.Errorf("a SET that overwrites allocates %.1f times per request, want 0", allocs)
	}
	got, ok, err := c.Get(key)
	if s := c.Stats(); stored != 1001 || s.Sets != 1002 || err != nil || !ok || string(got) != val {
		t.Errorf("%d requests handled, %d sets; the key reads %.10q, %v, %v", stored, s.Sets, got, ok, err)
	}
}

// TestKeyTooLong: a key of maxKeyLen+1 bytes is refused by Set and by the
// protocol alike — an index record keeps its key's length in one byte —
// and one of maxKeyLen bytes is taken by both.
func TestKeyTooLong(t *testing.T) {
	c, _ := newMemCache(t, 64, 8)
	long, longest := strings.Repeat("k", maxKeyLen+1), strings.Repeat("k", maxKeyLen)
	if err := c.Set(long, []byte("v")); err != ErrKeyTooLong {
		t.Errorf("Set of a %d-byte key = %v, want ErrKeyTooLong", len(long), err)
	}
	if err := c.Set(longest, []byte("v")); err != nil {
		t.Errorf("Set of a %d-byte key: %v", len(longest), err)
	}
	conn := pipeConn(t, c)
	go io.WriteString(conn, setReq(long, "w")+"get "+longest+"\n")
	got := readReplies(t, bufio.NewReader(conn), 2)
	if got[0] != "ERR key too long\n" || got[1] != valueReply("v") {
		t.Errorf("replies %q", got)
	}
	if s := c.Stats(); s.Sets != 1 {
		t.Errorf("%d sets stored, want 1", s.Sets)
	}
}

// TestGetFaultsWithShardFree: a GET whose page is absent faults it with
// no index lock held, so SETs into the key's shard — of another key, and
// of the key itself, which moves its value to a new cell — complete while
// the read is on the wire, and the GET then follows the key to the cell
// it moved to.
func TestGetFaultsWithShardFree(t *testing.T) {
	c, back := newMemCache(t, 256, 64)
	// 8,192 values of class 104, 39 to a page, carve 211 pages over 64
	// frames: the evictor has written the first ones back.
	var keys []string
	for k := range 8192 {
		key := fmt.Sprintf("k%d", k)
		if err := c.Set(key, bytes.Repeat([]byte{'o'}, 100)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	var key string
	for _, k := range keys {
		h := keyHash([]byte(k))
		sh := c.shard(h)
		sh.mu.Lock()
		e, _ := sh.ix.get(h, []byte(k))
		sh.mu.Unlock()
		fr, resident := c.pager.PinResident(uint64(e.pg))
		if !resident {
			key = k
			break
		}
		fr.Unpin()
	}
	if key == "" {
		t.Fatal("every page is resident")
	}
	var other string // another key of the same index shard
	for k := 0; other == ""; k++ {
		if o := fmt.Sprintf("o%d", k); keyHash([]byte(o))%indexShards == keyHash([]byte(key))%indexShards {
			other = o
		}
	}

	back.entered, back.gate = make(chan struct{}, 1), make(chan struct{})
	type got struct {
		val []byte
		ok  bool
		err error
	}
	read := make(chan got, 1)
	go func() {
		v, ok, err := c.Get(key)
		read <- got{v, ok, err}
	}()
	<-back.entered // the GET's fault is on the wire
	// Values of classes no key has used yet land on freshly carved pages,
	// which fault in as zeros with no read.
	moved := bytes.Repeat([]byte{'n'}, 3000)
	set := make(chan error, 2)
	go func() {
		set <- c.Set(other, bytes.Repeat([]byte{'x'}, 1500))
		set <- c.Set(key, moved)
	}()
	for range 2 {
		select {
		case err := <-set:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a SET into the shard of a GET whose fault is on the wire did not complete")
		}
	}
	close(back.gate)
	r := <-read
	if r.err != nil || !r.ok || !bytes.Equal(r.val, moved) {
		t.Fatalf("GET after its value moved = %.10q (%d bytes), %v, %v; want the %d bytes it moved to", r.val, len(r.val), r.ok, r.err, len(moved))
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Errorf("%d misses", s.Misses)
	}
}
