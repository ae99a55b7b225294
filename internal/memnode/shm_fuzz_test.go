package memnode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzRingDemux drives both sides of the shm ring protocol on fake
// in-memory segments with fuzz-controlled ring state: out-of-range
// arena extents, overlapping descriptors, stale/duplicate/unknown
// completion IDs, implausible producer indices, and head/tail
// wraparound. Neither side may ever panic or index out of bounds; a
// hostile ring must fail the connection cleanly (a returned error that
// the caller turns into poison), and no call may complete twice (a
// double completion panics). One of the staged calls is the attempt of
// a started READV: completed by the ring or failed with the poisoned
// stream, its hook runs once.
//
// Input format (shared by both drivers):
//
//	[0:8)   producer/consumer base index (exercises wraparound)
//	[8:16)  published delta over the base (implausible values > entries
//	        must read as ring corruption, not as a huge iteration count)
//	[16]    pending-call count seed (client driver only)
//	[17:)   raw 64-byte ring slots (SQEs for the server driver, CQEs for
//	        the client driver)
const fuzzRingEntries = 64

func ringSeed(base, delta uint64, npend byte, slots ...[]byte) []byte {
	buf := make([]byte, 17, 17+len(slots)*shmSlotBytes)
	binary.LittleEndian.PutUint64(buf[0:], base)
	binary.LittleEndian.PutUint64(buf[8:], delta)
	buf[16] = npend
	for _, s := range slots {
		slot := make([]byte, shmSlotBytes)
		copy(slot, s)
		buf = append(buf, slot...)
	}
	return buf
}

func sqeBytes(e sqEntry) []byte {
	slot := make([]byte, shmSlotBytes)
	encodeSQE(slot, e)
	return slot
}

func cqeBytes(e cqEntry) []byte {
	slot := make([]byte, shmSlotBytes)
	encodeCQE(slot, e)
	return slot
}

// fuzzRingSegment builds a plain in-memory segment shaped like a real
// mapping for fuzzRingEntries-slot rings.
func fuzzRingSegment(arenaBytes int64) ([]byte, int64) {
	ringBytes := int64(2*fuzzRingEntries) * shmSlotBytes
	arenaOff := (shmHdrBytes + ringBytes + 4095) &^ 4095
	return make([]byte, arenaOff+arenaBytes), arenaOff
}

// fakeShmConn is the server side of a ring over a plain in-memory
// segment, no socket: what process() needs and nothing else.
func fakeShmConn(s *Server, arenaBytes int64) *shmConn {
	seg, arenaOff := fuzzRingSegment(arenaBytes)
	h := &shmConn{
		s:     s,
		seg:   seg,
		arena: seg[arenaOff : arenaOff+arenaBytes],
		sq:    newShmRing(seg, shmHdrBytes, fuzzRingEntries, shmOffSqCons, shmOffSqProd),
		cq:    newShmRing(seg, shmHdrBytes+fuzzRingEntries*shmSlotBytes, fuzzRingEntries, shmOffCqProd, shmOffCqCons),
	}
	h.srvSleep = shmWord(seg, shmOffSrvSleep)
	h.cliSleep = shmWord(seg, shmOffCliSleep)
	return h
}

// fuzzShmProcess replays fuzz bytes as the submission ring a hostile
// client produced and runs the server-side consumer over it.
func fuzzShmProcess(data []byte) {
	h := fakeShmConn(fuzzServer(), 128<<10)
	base := binary.LittleEndian.Uint64(data)
	delta := binary.LittleEndian.Uint64(data[8:])
	h.sq.local = base
	*h.sq.mine = base
	*h.sq.peer = base + delta
	copy(h.seg[shmHdrBytes:shmHdrBytes+fuzzRingEntries*shmSlotBytes], data[17:])

	// A poisoned ring returns an error once and the handler dies; a sane
	// burst drains in the first call and the rest are no-ops.
	for i := 0; i < 3; i++ {
		if _, err := h.process(); err != nil {
			return
		}
	}
}

// fuzzShmConsume replays fuzz bytes as the completion ring a hostile
// server produced and runs the client-side demux over it, with a
// handful of genuine pending calls staged so stale/duplicate IDs have
// something to collide with.
func fuzzShmConsume(data []byte) {
	const arenaBytes = 128 << 10
	seg, arenaOff := fuzzRingSegment(arenaBytes)
	// A client with no server behind it: enough for a hooked op to end on
	// — one attempt, so a failure a retry could cure is final too.
	c := &Client{opts: Options{MaxAttempts: 1}, window: make(chan struct{}, 1), closedCh: make(chan struct{})}
	var hooked atomic.Int32
	hookRan := make(chan struct{}, 2)
	started := false
	st := &shmStream{
		c:       c,
		seg:     seg,
		arena:   seg[arenaOff : arenaOff+arenaBytes],
		alloc:   newShmArena(arenaBytes, 4),
		cq:      newShmRing(seg, shmHdrBytes+fuzzRingEntries*shmSlotBytes, fuzzRingEntries, shmOffCqCons, shmOffCqProd),
		pending: make([]*call, fuzzRingEntries),
	}
	st.refs.Store(1)

	base := binary.LittleEndian.Uint64(data)
	delta := binary.LittleEndian.Uint64(data[8:])
	npend := int(data[16])%16 + 1
	st.cq.local = base
	*st.cq.mine = base
	*st.cq.peer = base + delta

	calls := make([]*call, 0, npend)
	for i := 0; i < npend; i++ {
		off, cp, ok := st.alloc.alloc(4096)
		if !ok {
			break
		}
		ca := &call{
			op: opRead, id: base + uint64(i) + 1, length: 4096,
			extOff: off, extCap: cp,
		}
		if i == 1 || i == 2 {
			// Batched reads into caller-owned pages: only a completion of
			// exactly their length may touch them.
			ca.op, ca.dstLen = opReadV, 4096
			ca.dst = SplitPages(bytes.Repeat([]byte{0xEE}, 4096), 2048)
		}
		slot := ca.id & (fuzzRingEntries - 1)
		if st.pending[slot] != nil {
			st.alloc.free(off, cp)
			continue
		}
		if i == 2 {
			// The second READV was started, not run: as Pending.start
			// leaves it, holding the window's one slot.
			ca.owner = &Pending{c: c, proto: *ca, st: st, att: ca, hook: func(error) {
				hooked.Add(1)
				hookRan <- struct{}{}
			}}
			c.window <- struct{}{}
			started = true
		}
		st.pending[slot] = ca
		st.npend++
		calls = append(calls, ca)
	}

	cqOff := shmHdrBytes + int64(fuzzRingEntries)*shmSlotBytes
	copy(seg[cqOff:cqOff+fuzzRingEntries*shmSlotBytes], data[17:])

	for i := 0; i < 3; i++ {
		n, err := st.consumeCompletions(nil)
		if err != nil {
			// The caller poisons the stream, which fails what is still
			// pending — as fail does, short of the socket this stream lacks.
			for slot, ca := range st.pending {
				if ca != nil {
					st.pending[slot] = nil
					ca.fail(err)
				}
			}
		}
		if err != nil || n == 0 {
			break
		}
	}
	over := started && len(c.window) == 0 // completing the attempt frees its slot
	if over {
		// The hook runs where the attempt completed, or — after a failure
		// that a retry might cure — on a goroutine.
		select {
		case <-hookRan:
		case <-time.After(5 * time.Second):
			panic("a completed attempt's hook did not run")
		}
	}
	if n := hooked.Load(); over != (n == 1) || n > 1 {
		panic(fmt.Sprintf("the started READV's hook ran %d times; its attempt over: %v", n, over))
	}
	// Recycle whatever legitimately completed; a double completion would
	// already have panicked inside complete().
	for _, ca := range calls {
		if ca.completed() && ca.err == nil && ca.body != nil {
			PutBuf(ca.body)
		}
		if ca.dst == nil {
			continue
		}
		// The arena is all zeroes: the pages are filled whole by a
		// completion that succeeded, and untouched otherwise.
		want := byte(0xEE)
		if ca.completed() && ca.err == nil {
			want = 0
		}
		for _, d := range ca.dst {
			if !bytes.Equal(d, bytes.Repeat([]byte{want}, len(d))) {
				panic("shm demux left a READV's pages partly filled")
			}
		}
	}
}

func FuzzRingDemux(f *testing.F) {
	const e = fuzzRingEntries
	arena := int64(128 << 10)
	// Clean single read against the pre-registered region.
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opRead, id: 1, regionID: 1, offset: 0, length: 4096, extOff: 0, extCap: 8192})))
	// Batch with overlapping descriptors referencing the same extent —
	// legal aliasing (RDMA semantics), must not crash.
	f.Add(ringSeed(0, 2, 3,
		sqeBytes(sqEntry{op: opWrite, id: 1, regionID: 1, offset: 0, length: 4096, extOff: 0, extCap: 8192}),
		sqeBytes(sqEntry{op: opRead, id: 2, regionID: 1, offset: 0, length: 4096, extOff: 0, extCap: 8192}),
	))
	// Extent out of the arena entirely; extent that overflows off+cap.
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opRead, id: 1, regionID: 1, length: 4096, extOff: uint64(arena), extCap: 8192})))
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opRead, id: 1, regionID: 1, length: 4096, extOff: math.MaxUint64 - 4096, extCap: 8192})))
	// Length larger than the (valid) extent; zero-length op; bad opcode.
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opRead, id: 1, regionID: 1, length: 1 << 40, extOff: 0, extCap: 4096})))
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opWrite, id: 1, regionID: 1, length: 0, extOff: 0, extCap: 4096})))
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: 0xEE, id: 1, extCap: 64})))
	// Hostile batch tables: absurd count, truncated table, overlapping iovecs.
	tbl := descs(0, 4096, 0, 4096) // two descriptors aliasing the same page
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opReadV, id: 1, regionID: 1, length: int64(len(tbl)), extOff: 0, extCap: 16384})))
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opReadV, id: 1, regionID: 1, length: 16, extOff: 0, extCap: 4096})))
	f.Add(ringSeed(0, 1, 3, sqeBytes(sqEntry{op: opWriteV, id: 1, regionID: 1, length: 8, extOff: 0, extCap: 4096})))
	// Implausible producer delta (> entries) must poison, not iterate.
	f.Add(ringSeed(0, e+1, 3))
	f.Add(ringSeed(0, math.MaxUint64, 3))
	// Index wraparound right at the top of the u64 space.
	f.Add(ringSeed(math.MaxUint64-2, 3, 3,
		sqeBytes(sqEntry{op: opStat, id: 1, extCap: 64}),
		sqeBytes(sqEntry{op: opStat, id: 2, extCap: 64, extOff: 64}),
		sqeBytes(sqEntry{op: opStat, id: 3, extCap: 64, extOff: 128}),
	))
	// Client side: clean completion, unknown id, duplicate id (stale
	// retransmit), oversized completion length, negative length.
	f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: 1, length: 4096})))
	f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: 999, length: 0})))
	f.Add(ringSeed(0, 2, 3,
		cqeBytes(cqEntry{status: statusOK, id: 1, length: 16}),
		cqeBytes(cqEntry{status: statusOK, id: 1, length: 16}),
	))
	f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: 1, length: 1 << 40})))
	f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: 1, length: -1})))
	f.Add(ringSeed(0, 2, 3,
		cqeBytes(cqEntry{status: statusErrRegion, id: 1, length: 8}),
		cqeBytes(cqEntry{status: statusErr, id: 2, length: 8}),
	))
	// The READVs staged as ids 2 and 3 (the started one): completed in
	// full, short, in error, and for a region the server has lost.
	for id := uint64(2); id <= 3; id++ {
		f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: id, length: 4096})))
		f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusOK, id: id, length: 2048})))
		f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusErr, id: id, length: 16})))
		f.Add(ringSeed(0, 1, 3, cqeBytes(cqEntry{status: statusErrRegion, id: id, length: 16})))
	}
	// Completion wraparound with live pending calls on both sides of it.
	f.Add(ringSeed(math.MaxUint64-1, 2, 4,
		cqeBytes(cqEntry{status: statusOK, id: math.MaxUint64, length: 0}),
		cqeBytes(cqEntry{status: statusOK, id: 0, length: 0}),
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 17 {
			return
		}
		fuzzShmProcess(data)
		fuzzShmConsume(data)
	})
}
