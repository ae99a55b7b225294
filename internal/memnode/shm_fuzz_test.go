package memnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzRingDemux drives the shm link's demux — the split between the
// verbs a file link runs on the region file, on the caller's goroutine,
// and the verbs that ride the frames to Server.exec — with fuzz-built
// bursts of verbs. It keeps the name, the input shape and the seeds of
// the fuzzer of the submission and completion rings that the file link
// replaced. Two drivers share each input:
//
//   - fuzzFileExec shapes every page verb as the client would send it and
//     runs it through a region file's exec and, as its frame carries it,
//     through Server.exec, on twin regions. The two must accept and
//     refuse the same verbs in the same words, read the same bytes, leave
//     the twins equal, and count the same in STAT's counters.
//   - fuzzLinkDemux runs the burst through a file-link client's own
//     verbs, the pending count of them in flight at a time, spread over a
//     region the client registered (attached), one another client
//     registered (attached at the first synchronous verb; asynchronous
//     ones ride the frames) and one that does not exist. Every verb must
//     end, and a started READV's hook run once, its pages filled or left
//     untouched and never overrun. The burst run again one verb at a
//     time must then give what a TCP client gets, and once its region is
//     unregistered the other client's region file is let go.
//
// Input format:
//
//	[0:8)   base, added to every verb's offset (offsets wrap into the
//	        negative and up to MaxInt64)
//	[8:16)  the number of verbs in the burst; more than the slots hold
//	        reads as the slots there are, never as a count to iterate
//	[16]    pending-count seed (fuzzLinkDemux only)
//	[17:)   64-byte slots, one verb each (fuzzVerb), which are also the
//	        start of the arena that payloads are cut from
func FuzzRingDemux(f *testing.F) {
	const e = fuzzSlots
	size := int64(fuzzRegionBytes)
	// A clean single read of the attached region.
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 1, length: 4096}.slot()))
	// A WRITEV of two pages, then a read of one of them.
	wtbl := descs(0, 4096, 8192, 4096)
	wlen := uint64(len(wtbl)) + 8192
	f.Add(verbSeed(0, 2, 3,
		fuzzVerb{op: opWriteV, region: 1, length: int64(wlen), extOff: 2 * fuzzSlotBytes, extCap: wlen}.slot(),
		fuzzVerb{op: opRead, region: 1, offset: 8192, length: 4096}.slot(),
		wtbl,
	))
	// A payload out of the arena entirely; one whose end overflows.
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opWrite, region: 1, length: 4096, extOff: fuzzArenaBytes, extCap: 8192}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opWrite, region: 1, length: 4096, extOff: math.MaxUint64 - 4096, extCap: 8192}.slot()))
	// A length beyond MaxIO; a zero-length write; a bad opcode.
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 1, length: 1 << 40}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opWrite, region: 1, length: 0, extCap: 4096}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: 0xEE, extCap: 64}.slot()))
	// Hostile batch tables: descriptors aliasing one page, a table shorter
	// than the header declares, a WRITEV whose table is cut.
	tbl := descs(0, 4096, 0, 4096)
	f.Add(verbSeed(0, 1, 3,
		fuzzVerb{op: opReadV, region: 1, length: int64(len(tbl)), extOff: fuzzSlotBytes, extCap: uint64(len(tbl))}.slot(),
		tbl,
	))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opReadV, region: 1, length: 16, extCap: 4096}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opWriteV, region: 1, length: 8, extCap: 4096}.slot()))
	// A burst longer than its slots runs the slots there are.
	f.Add(verbSeed(0, e+1, 3))
	f.Add(verbSeed(0, math.MaxUint64, 3))
	// Offsets that wrap around the top of the u64 space.
	f.Add(verbSeed(math.MaxUint64-2, 3, 3,
		fuzzVerb{op: opStat}.slot(),
		fuzzVerb{op: opRead, region: 1, offset: 4096, length: 4096}.slot(),
		fuzzVerb{op: opRead, region: 1, length: 4096}.slot(),
	))
	// The other client's region (frames first, then its file) and no
	// region at all: a clean read, a read of nothing, the same write
	// twice, an oversized read, a negative length, and errors on both
	// halves of the split.
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 2, length: 4096}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 0, length: 4096}.slot()))
	f.Add(verbSeed(0, 2, 3,
		fuzzVerb{op: opWrite, region: 2, length: 16, extCap: 16}.slot(),
		fuzzVerb{op: opWrite, region: 2, length: 16, extCap: 16}.slot(),
	))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 2, length: 1 << 40}.slot()))
	f.Add(verbSeed(0, 1, 3, fuzzVerb{op: opRead, region: 1, length: -1}.slot()))
	f.Add(verbSeed(0, 2, 3,
		fuzzVerb{op: opWrite, region: 0, length: 8, extCap: 8}.slot(),
		fuzzVerb{op: opRead, region: 2, offset: size, length: 8}.slot(),
	))
	// READVs, started and run, on the attached region and on the other
	// client's: in full, in short pages, out of bounds, and with a table
	// that claims a descriptor more than it holds.
	short := descs(0, 4096, 4096, 4096)
	binary.LittleEndian.PutUint64(short, 3)
	for region := uint64(1); region <= 2; region++ {
		for _, table := range [][]byte{descs(0, 4096, 4096, 4096), descs(0, 2048, 2048, 2048), descs(0, 4096, size, 4096), short} {
			f.Add(verbSeed(0, 1, 3,
				fuzzVerb{op: opReadV, region: region, length: int64(len(table)), extOff: fuzzSlotBytes, extCap: uint64(len(table))}.slot(),
				table,
			))
		}
	}
	// Wrapped offsets with several reads in flight on both sides of zero.
	f.Add(verbSeed(math.MaxUint64-1, 2, 4,
		fuzzVerb{op: opRead, region: 2, length: 4096}.slot(),
		fuzzVerb{op: opRead, region: 2, offset: 4096, length: 4096}.slot(),
	))

	fx := newFuzzFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, ok := parseBurst(data)
		if !ok {
			return
		}
		fuzzFileExec(t, fx, b)
		fuzzLinkDemux(t, fx, b)
	})
}

const (
	fuzzSlotBytes   = 64
	fuzzSlots       = 64 // the most verbs a burst runs
	fuzzArenaBytes  = 128 << 10
	fuzzRegionBytes = 256 << 10
	fuzzNoRegion    = 1 << 40 // a handle no region has
	fuzzMaxPage     = 64 << 10
)

// fuzzVerb is one slot: op(1) pad(7) region(8) offset(8) length(8)
// extOff(8) extCap(8), then 16 spare bytes. region picks the region by
// its value mod 3 — 1: the attached one, 2: the other client's, 0: none.
// A verb's payload is the extCap bytes of the arena at extOff, clipped
// to the arena.
type fuzzVerb struct {
	op             byte
	region         uint64
	offset, length int64
	extOff, extCap uint64
}

func (v fuzzVerb) slot() []byte {
	b := make([]byte, fuzzSlotBytes)
	b[0] = v.op
	binary.LittleEndian.PutUint64(b[8:], v.region)
	binary.LittleEndian.PutUint64(b[16:], uint64(v.offset))
	binary.LittleEndian.PutUint64(b[24:], uint64(v.length))
	binary.LittleEndian.PutUint64(b[32:], v.extOff)
	binary.LittleEndian.PutUint64(b[40:], v.extCap)
	return b
}

func decodeVerb(b []byte) fuzzVerb {
	return fuzzVerb{
		op:     b[0],
		region: binary.LittleEndian.Uint64(b[8:]),
		offset: int64(binary.LittleEndian.Uint64(b[16:])),
		length: int64(binary.LittleEndian.Uint64(b[24:])),
		extOff: binary.LittleEndian.Uint64(b[32:]),
		extCap: binary.LittleEndian.Uint64(b[40:]),
	}
}

// verbSeed builds an input: the header, then each slot padded to 64
// bytes.
func verbSeed(base, n uint64, npend byte, slots ...[]byte) []byte {
	buf := make([]byte, 17, 17+len(slots)*fuzzSlotBytes)
	binary.LittleEndian.PutUint64(buf[0:], base)
	binary.LittleEndian.PutUint64(buf[8:], n)
	buf[16] = npend
	for _, s := range slots {
		slot := make([]byte, fuzzSlotBytes)
		copy(slot, s)
		buf = append(buf, slot...)
	}
	return buf
}

// fuzzBurst is a decoded input.
type fuzzBurst struct {
	base  uint64
	npend int
	verbs []fuzzVerb
	arena []byte
}

func parseBurst(data []byte) (*fuzzBurst, bool) {
	if len(data) < 17 {
		return nil, false
	}
	b := &fuzzBurst{
		base:  binary.LittleEndian.Uint64(data),
		npend: int(data[16])%16 + 1,
		arena: make([]byte, fuzzArenaBytes),
	}
	slots := data[17:]
	n := min(binary.LittleEndian.Uint64(data[8:]), uint64(len(slots)/fuzzSlotBytes), fuzzSlots)
	for i := range int(n) {
		b.verbs = append(b.verbs, decodeVerb(slots[i*fuzzSlotBytes:]))
	}
	for i := range b.arena {
		b.arena[i] = byte(i*7+i>>12) ^ 0x5A
	}
	copy(b.arena, slots)
	return b, true
}

// offset is v's offset moved by the burst's base.
func (b *fuzzBurst) offset(v fuzzVerb) int64 { return int64(b.base + uint64(v.offset)) }

func (b *fuzzBurst) payload(v fuzzVerb) []byte {
	lo := min(v.extOff, fuzzArenaBytes)
	return b.arena[lo : lo+min(v.extCap, fuzzArenaBytes-lo)]
}

// batch reads v's payload as a client's own batch would be given: at
// most 16 (offset, length) pairs of its table, offsets moved by the
// base. A length outside (0, 64 KiB] becomes an empty page, which the
// client refuses.
func (b *fuzzBurst) batch(v fuzzVerb) (offs []int64, lens []int) {
	p := b.payload(v)
	if len(p) < 8 {
		return nil, nil
	}
	n := min(binary.LittleEndian.Uint64(p), uint64(len(p)-8)/16, 16)
	for i := range int(n) {
		offs = append(offs, int64(b.base+binary.LittleEndian.Uint64(p[8+16*i:])))
		l := int64(binary.LittleEndian.Uint64(p[16+16*i:]))
		if l <= 0 || l > fuzzMaxPage {
			l = 0
		}
		lens = append(lens, int(l))
	}
	return offs, lens
}

// pages cuts WRITEV's pages of the given lengths from the arena.
func (b *fuzzBurst) pages(lens []int) [][]byte {
	pages := make([][]byte, len(lens))
	for i, l := range lens {
		at := i * 4096 % (fuzzArenaBytes - fuzzMaxPage)
		pages[i] = b.arena[at : at+l]
	}
	return pages
}

// fuzzFixture is what every input runs against: an shm server, a client
// that negotiated the file link and registered region a, a TCP client
// that registered a's twin, and a second attach of a's file, which
// fuzzFileExec runs verbs on.
type fuzzFixture struct {
	srv      *Server
	c, tc    *Client
	a, twin  uint64
	file     *regionFile
	baseline []byte
}

func newFuzzFixture(tb testing.TB) *fuzzFixture {
	srv, c := newShmPair(tb, 64<<20)
	opts := fastOpts()
	opts.Transport = TransportTCP
	tc, err := DialOptions(srv.Addr(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tc.Close() })
	fx := &fuzzFixture{srv: srv, c: c, tc: tc, baseline: make([]byte, fuzzRegionBytes)}
	for i := range fx.baseline {
		fx.baseline[i] = byte(i>>12) ^ byte(i)
	}
	if fx.a, err = c.Register(fuzzRegionBytes); err != nil {
		tb.Fatal(err)
	}
	if c.TransportKind() != "shm" {
		tb.Fatalf("client transport %q, want shm", c.TransportKind())
	}
	if fx.twin, err = tc.Register(fuzzRegionBytes); err != nil {
		tb.Fatal(err)
	}
	st := c.liveLink()
	if st == nil || st.files == nil {
		tb.Fatal("no file link")
	}
	if fx.file, err = c.dialAttach(st.files.ext, fx.a, fuzzRegionBytes); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(fx.file.drop)
	return fx
}

// chunks returns region id's chunks on the server.
func (fx *fuzzFixture) chunks(id uint64) [][]byte {
	fx.srv.mu.Lock()
	defer fx.srv.mu.Unlock()
	return fx.srv.regions[id]
}

// reset gives each of the regions the baseline's bytes.
func (fx *fuzzFixture) reset(ids ...uint64) {
	for _, id := range ids {
		chunkedWrite(fx.chunks(id), 0, fx.baseline)
	}
}

// content is region id's bytes.
func (fx *fuzzFixture) content(id uint64) []byte {
	return bytes.Join(appendChunkSegs(nil, fx.chunks(id), 0, fuzzRegionBytes), nil)
}

func snapshot(c *counters) (n [4]uint64) {
	for i := range n {
		n[i] = c.n[i].Load()
	}
	return n
}

// fuzzFileExec shapes each page verb of b as the client's own verbs
// would (skipping those the client refuses to send), runs it on fx's
// region file, and runs the same verb as its frame would carry it
// through exec on the twin region.
func fuzzFileExec(t *testing.T, fx *fuzzFixture, b *fuzzBurst) {
	fx.reset(fx.a, fx.twin)
	fileBefore, execBefore := snapshot(fx.file.ctr), snapshot(&fx.srv.ops)
	for i, v := range b.verbs {
		proto, ok := fuzzProto(b, v)
		if !ok {
			continue
		}
		var wire call
		wire.arm(&proto, fx.twin)
		req := request{op: wire.op, regionID: fx.twin, offset: wire.offset, length: wire.length}
		if carriesPayload(wire.op) {
			req.setPayload(bytes.Join(wire.bufs, nil))
		}
		var rp reply
		fx.srv.exec(&req, &rp)
		body, err := fx.file.exec(&proto)
		var got, want string
		if err != nil {
			var se *serverError
			if !errors.As(err, &se) {
				t.Fatalf("verb %d (op %d): the region file failed: %v", i, v.op, err)
			}
			got = se.msg
		}
		if rp.status != statusOK {
			want = string(rp.body)
		}
		if got != want {
			t.Fatalf("verb %d (op %d): the file link says %q, exec %q", i, v.op, got, want)
		}
		if proto.dst != nil {
			body = bytes.Join(proto.dst, nil)
		}
		if err == nil && (v.op == opRead || v.op == opReadV) {
			if plan := bytes.Join(rp.appendSegs(nil), nil); !bytes.Equal(body, plan) {
				t.Fatalf("verb %d (op %d): the file link read %d bytes, exec %d, or other bytes", i, v.op, len(body), len(plan))
			}
		}
	}
	if !bytes.Equal(fx.content(fx.a), fx.content(fx.twin)) {
		t.Fatal("the file link's writes left its region unlike exec's twin")
	}
	fileAfter, execAfter := snapshot(fx.file.ctr), snapshot(&fx.srv.ops)
	for i := range fileAfter {
		if f, x := fileAfter[i]-fileBefore[i], execAfter[i]-execBefore[i]; f != x {
			t.Fatalf("STAT counter %d: the file link counted %d, exec %d", i, f, x)
		}
	}
}

// fuzzProto is v shaped as the client shapes its own page verbs, and
// false for a verb that is no page verb or that the client refuses.
func fuzzProto(b *fuzzBurst, v fuzzVerb) (proto call, ok bool) {
	var err error
	switch v.op {
	case opRead:
		proto = call{op: opRead, offset: b.offset(v), length: v.length}
		err = proto.check()
	case opWrite:
		data := b.payload(v)
		proto = call{op: opWrite, offset: b.offset(v), length: int64(len(data)), bufs: net.Buffers{data}}
		err = proto.check()
	case opReadV:
		offs, lens := b.batch(v)
		_, dst := cutPages(lens, 0)
		err = proto.readv(0, offs, dst)
	case opWriteV:
		offs, lens := b.batch(v)
		err = proto.writev(0, offs, b.pages(lens))
	default:
		return call{}, false
	}
	return proto, err == nil
}

// fuzzLinkDemux runs b through fx's file-link client: first with verbs
// in flight, then one at a time against the TCP client.
func fuzzLinkDemux(t *testing.T, fx *fuzzFixture, b *fuzzBurst) {
	other, err := fx.tc.Register(fuzzRegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	fx.reset(fx.a, other)
	handles := [3]uint64{fuzzNoRegion, fx.a, other}
	const patience = 5 * time.Second

	var waits []func()
	var hooks []*atomic.Int32
	for _, v := range b.verbs {
		h, off := handles[v.region%3], b.offset(v)
		switch v.op {
		case opRead:
			p := fx.c.ReadAsync(h, off, v.length)
			waits = append(waits, func() {
				select {
				case <-p.Done():
				case <-time.After(patience):
					t.Fatal("a started READ never ended")
				}
				body, err := p.Wait()
				if err == nil && int64(len(body)) != v.length {
					t.Fatalf("a READ of %d bytes gave %d", v.length, len(body))
				}
				PutBuf(body)
			})
		case opReadV:
			offs, lens := b.batch(v)
			buf, dst := cutPages(lens, 1) // the spare byte guards the pages' end
			total := len(buf) - 1
			for i := range buf {
				buf[i] = 0xEE
			}
			hooked := new(atomic.Int32)
			hooks = append(hooks, hooked)
			done := make(chan error, 2)
			fx.c.StartReadVInto(h, offs, dst, func(err error) {
				hooked.Add(1)
				done <- err
			})
			waits = append(waits, func() {
				var err error
				select {
				case err = <-done:
				case <-time.After(patience):
					t.Fatal("a started READV's hook never ran")
				}
				if buf[total] != 0xEE {
					t.Fatal("a READV ran over its pages")
				}
				if err != nil && !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, total+1)) {
					t.Fatalf("a refused READV touched its pages: %v", err)
				}
			})
		case opWrite:
			_ = fx.c.Write(h, off, b.payload(v)) // compared below, one verb at a time
		case opWriteV:
			offs, lens := b.batch(v)
			_ = fx.c.WriteV(h, offs, b.pages(lens))
		case opStat:
			if _, err := fx.c.Stat(); err != nil {
				t.Fatalf("STAT: %v", err)
			}
		}
		if len(waits) >= b.npend {
			for _, w := range waits {
				w()
			}
			waits = waits[:0]
		}
	}
	for _, w := range waits {
		w()
	}
	for _, n := range hooks {
		if got := n.Load(); got != 1 {
			t.Fatalf("a started READV's hook ran %d times", got)
		}
	}

	for i, v := range b.verbs {
		h := handles[v.region%3]
		got, gerr := fuzzRunVerb(fx.c, h, v, b)
		want, werr := fuzzRunVerb(fx.tc, h, v, b)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("verb %d (op %d, region %d): the file link gave %d bytes, %v; TCP %d bytes, %v",
				i, v.op, v.region%3, len(got), gerr, len(want), werr)
		}
	}

	// The region goes: the file link's next verb on it finds the region
	// revoked, lets go of its file and rides the frames, which refuse it.
	if err := fx.tc.Unregister(other); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.c.Read(other, 0, 4096); err == nil {
		t.Fatal("a read of an unregistered region succeeded")
	}
	if st := fx.c.liveLink(); st != nil && st.files != nil {
		if f := st.files.acquire(other); f != nil {
			f.release()
			t.Fatal("the file link kept an unregistered region's file")
		}
	}
}

// fuzzRunVerb runs v on c, synchronously, and returns what it read.
func fuzzRunVerb(c *Client, h uint64, v fuzzVerb, b *fuzzBurst) ([]byte, error) {
	off := b.offset(v)
	switch v.op {
	case opRead:
		return c.Read(h, off, v.length)
	case opReadV:
		offs, lens := b.batch(v)
		buf, dst := cutPages(lens, 0)
		if err := c.ReadVInto(h, offs, dst); err != nil {
			return nil, err // the pages' contents are unspecified
		}
		return buf, nil
	case opWrite:
		return nil, c.Write(h, off, b.payload(v))
	case opWriteV:
		offs, lens := b.batch(v)
		return nil, c.WriteV(h, offs, b.pages(lens))
	}
	return nil, nil
}

// cutPages allocates pages of the given lengths, back to back in one
// buffer with spare bytes after them, and returns the buffer and the
// pages, each capped at its own end.
func cutPages(lens []int, spare int) ([]byte, [][]byte) {
	var total int
	for _, l := range lens {
		total += l
	}
	buf := make([]byte, total+spare)
	dst := make([][]byte, len(lens))
	at := 0
	for i, l := range lens {
		dst[i] = buf[at : at+l : at+l]
		at += l
	}
	return buf, dst
}
