package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mage/internal/upager"
)

// The correctness self-test: fail_frac is only worth reporting if the
// checkers trip when the system is wrong. Each test runs the real
// client loop against an honest stand-in (no failures) and against one
// that flips a byte, forgets a key, or drops a write (failures > 0).

// fakeCache speaks magecache's text protocol from memory. corrupt, when
// set, may alter a GET's value before it is sent.
type fakeCache struct {
	mu      sync.Mutex
	m       map[string][]byte
	corrupt func(key string, val []byte) ([]byte, bool) // false: answer MISS
}

func (f *fakeCache) serve(conn net.Conn) {
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "set":
			n, _ := strconv.Atoi(fields[2])
			buf := make([]byte, n+1)
			if _, err := io.ReadFull(r, buf); err != nil {
				return
			}
			f.mu.Lock()
			f.m[fields[1]] = buf[:n]
			f.mu.Unlock()
			fmt.Fprint(w, "STORED\n")
		case "get":
			f.mu.Lock()
			val, ok := f.m[fields[1]]
			f.mu.Unlock()
			if ok && f.corrupt != nil {
				val, ok = f.corrupt(fields[1], append([]byte(nil), val...))
			}
			if !ok {
				fmt.Fprint(w, "MISS\n")
				break
			}
			fmt.Fprintf(w, "VALUE %d\n", len(val))
			w.Write(val)
			w.WriteByte('\n')
		}
		if w.Flush() != nil {
			return
		}
	}
}

// kvFailures preloads 256 keys into a fakeCache and reads them back in
// windows of 16, returning what the client counted.
func kvFailures(t *testing.T, corrupt func(string, []byte) ([]byte, bool)) opStats {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	f := &fakeCache{m: make(map[string][]byte), corrupt: corrupt}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(conn)
		}
	}()
	c, err := dialKV(ln.Addr().String(), 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	st := &c.stats[0]
	for base := uint32(0); base < 256; base += kvWindow {
		var sets, gets []op
		for k := base; k < base+kvWindow; k++ {
			sets = append(sets, op{id: k, write: true})
			gets = append(gets, op{id: k})
		}
		for _, ops := range [][]op{sets, gets} {
			if _, err := c.exchange(ops, st, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.ops != 512 || st.gets != 256 {
		t.Fatalf("client counted %d ops, %d gets; sent 512, 256", st.ops, st.gets)
	}
	return *st
}

func TestKVCheckerTrips(t *testing.T) {
	if st := kvFailures(t, nil); st.failed != 0 || st.hits != 256 {
		t.Fatalf("honest cache: %d failed, %d hits", st.failed, st.hits)
	}
	victim := string(appendKey(nil, 77))
	cases := map[string]func(string, []byte) ([]byte, bool){
		"flipped fill byte": func(k string, v []byte) ([]byte, bool) {
			if k == victim {
				v[len(v)-1] ^= 0x40
			}
			return v, true
		},
		"flipped stamp byte": func(k string, v []byte) ([]byte, bool) {
			if k == victim {
				v[3] ^= 1
			}
			return v, true
		},
		"truncated value": func(k string, v []byte) ([]byte, bool) {
			if k == victim {
				v = v[:len(v)-1]
			}
			return v, true
		},
		"another key's value": func(k string, v []byte) ([]byte, bool) {
			if k == victim {
				return appendValue(nil, 78), true
			}
			return v, true
		},
		"miss on a preloaded key": func(k string, v []byte) ([]byte, bool) { return v, k != victim },
	}
	for name, corrupt := range cases {
		st := kvFailures(t, corrupt)
		if st.failed != 1 {
			t.Errorf("%s: %d failed ops, want exactly the 1 corrupted GET", name, st.failed)
		}
		if frac := float64(st.failed) / float64(st.ops); frac <= 0 {
			t.Errorf("%s: fail_frac = %v", name, frac)
		}
	}
}

// memBacking is a far-memory store in a map. dropWrites makes it
// acknowledge a WRITEV without keeping it: a lost writeback.
type memBacking struct {
	mu         sync.Mutex
	pages      map[int64][]byte
	dropWrites bool
	stale      bool // serve a page's first version for ever: a stale fault
}

func (b *memBacking) Register(int64) (uint64, error) { return 1, nil }

func (b *memBacking) Read(_ uint64, off, n int64) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, n)
	copy(out, b.pages[off])
	return out, nil
}

func (b *memBacking) Write(_ uint64, off int64, data []byte) error {
	return b.WriteV(0, []int64{off}, [][]byte{data})
}

func (b *memBacking) ReadV(h uint64, offs []int64, pb int64) ([][]byte, error) {
	out := make([][]byte, len(offs))
	for i, off := range offs {
		out[i], _ = b.Read(h, off, pb)
	}
	return out, nil
}

func (b *memBacking) WriteV(_ uint64, offs []int64, pages [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, off := range offs {
		if b.dropWrites {
			continue
		}
		if _, seen := b.pages[off]; seen && b.stale {
			continue
		}
		b.pages[off] = append([]byte(nil), pages[i]...)
	}
	return nil
}

// pageFailures runs two pageClients over a 64-page pager with 8 frames,
// so nearly every pin faults and every dirty page is written back.
func pageFailures(t *testing.T, b *memBacking) (ops, failed uint64) {
	t.Helper()
	b.pages = make(map[int64][]byte)
	p, err := upager.New(b, 64, 8, upager.Options{NoPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	cs := make([]*pageClient, clients)
	for i := range cs {
		c := &pageClient{id: i, gen: newOpGen(1, i, 64, 0.5), expect: make([]uint32, 64), stats: newSliceStats(1)}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 4000; n++ {
				if err := c.pin(p, c.gen.next(), &c.stats[0], nil, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range cs {
		ops += c.stats[0].ops
		failed += c.stats[0].failed
		if c.wrong != c.stats[0].failed {
			t.Errorf("client %d: %d wrong lanes but %d failed ops", c.id, c.wrong, c.stats[0].failed)
		}
	}
	return ops, failed
}

func TestPageCheckerTrips(t *testing.T) {
	if ops, failed := pageFailures(t, &memBacking{}); failed != 0 || ops != 8000 {
		t.Fatalf("honest backing: %d of %d pins failed", failed, ops)
	}
	if ops, failed := pageFailures(t, &memBacking{dropWrites: true}); failed == 0 {
		t.Errorf("dropped writebacks: fail_frac = 0 over %d pins", ops)
	}
	if ops, failed := pageFailures(t, &memBacking{stale: true}); failed == 0 {
		t.Errorf("stale faults: fail_frac = 0 over %d pins", ops)
	}
}

// Any failed op (for sim-grid: any cell whose Metrics digest drifted)
// makes the whole run incorrect.
func TestResultVoidsOnAnyFailure(t *testing.T) {
	r := newResult("sim-grid", 1, false)
	r.Attempted, r.Failed = 30, 1
	r.finish()
	if r.Correct || r.Metrics["fail_frac"].Value <= 0 {
		t.Errorf("one drifting cell in 30: correct=%v fail_frac=%v", r.Correct, r.Metrics["fail_frac"].Value)
	}
}
