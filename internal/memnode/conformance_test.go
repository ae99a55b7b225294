package memnode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
)

// verbClass is how one exec on a link ended, in the three kinds the retry
// layer above the links tells apart.
type verbClass int

const (
	verbOK       verbClass = iota
	verbTerminal           // IsTerminal: refused over a healthy link, never retried
	verbLost               // errRegionLost: do() replays the REGISTER and retries
)

func (c verbClass) String() string { return [...]string{"OK", "terminal", "region-lost"}[c] }

// statDelta is how a row moves the server's STAT counters.
type statDelta struct{ regions, used, readOps, writeOps, bytesRead, bytesWrite int64 }

func deltaOf(a, b Stats) statDelta {
	return statDelta{
		regions: int64(b.Regions - a.Regions), used: int64(b.UsedBytes - a.UsedBytes),
		readOps: int64(b.ReadOps - a.ReadOps), writeOps: int64(b.WriteOps - a.WriteOps),
		bytesRead: int64(b.BytesRead - a.BytesRead), bytesWrite: int64(b.BytesWrite - a.BytesWrite),
	}
}

// The conformance server holds confCap bytes, confSize of them in the
// region the rows address: a chunk and a bit, so that ranges can straddle
// the chunk boundary.
const (
	confCap  = 8 << 20
	confSize = ChunkBytes + 64<<10
)

// verbState is what the rows are built from and checked against.
type verbState struct {
	region uint64 // the region the rows address
	shadow []byte // what it must hold after every row, accepted or refused
	fresh  uint64 // the ID the last REGISTER row was given
}

// verbRow is one request and what both framings must make of it.
type verbRow struct {
	name string
	// call builds the request as the link's start takes it.
	call func(vs *verbState) *call
	want verbClass
	// delta is zero for every refusal: a refused request has no effect.
	delta statDelta
	// wrote is an accepted write's effect on the region.
	wrote func(shadow []byte)
}

func readCall(region uint64, off, n int64) *call {
	return &call{op: opRead, srvID: region, offset: off, length: n}
}

func writeCall(region uint64, off int64, data []byte) *call {
	ca := &call{op: opWrite, srvID: region, offset: off, length: int64(len(data))}
	if len(data) > 0 {
		ca.bufs = net.Buffers{data}
	}
	return ca
}

// batchCall is a READV or WRITEV whose payload is taken as it comes, so
// that a row can lie in it.
func batchCall(op byte, region uint64, payload ...[]byte) *call {
	ca := &call{op: op, srvID: region, bufs: payload}
	for _, p := range payload {
		ca.length += int64(len(p))
	}
	return ca
}

// readvCall is a well-formed READV, as ReadVInto builds it.
func readvCall(region uint64, offsets []int64, sizes ...int) *call {
	ca := &call{op: opReadV, srvID: region, offsets: offsets}
	for _, n := range sizes {
		ca.dst = append(ca.dst, make([]byte, n))
		ca.dstLen += int64(n)
	}
	return ca
}

// writevCall is a well-formed WRITEV, as WriteV builds it.
func writevCall(region uint64, offsets []int64, pages ...[]byte) *call {
	ca := &call{op: opWriteV, srvID: region, offsets: offsets, src: pages}
	for _, p := range pages {
		ca.length += int64(len(p))
	}
	return ca
}

// asClient puts proto through the client's own shaping, as Read, Write,
// ReadVInto and WriteV put theirs, and says whether any of them builds
// such a request: no other verb does, nor a batch with a hand-built table.
func asClient(proto *call) (shaped bool, err error) {
	var sh call
	switch {
	case proto.op == opRead || proto.op == opWrite:
		return true, proto.check()
	case proto.op == opReadV && proto.offsets != nil:
		return true, sh.readv(0, proto.offsets, proto.dst)
	case proto.op == opWriteV && proto.offsets != nil:
		return true, sh.writev(0, proto.offsets, proto.src)
	}
	return false, nil
}

func stamp(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

func verbRows() []verbRow {
	on := func(f func(region uint64) *call) func(*verbState) *call {
		return func(vs *verbState) *call { return f(vs.region) }
	}
	const unknown = 0xDEAD
	wrap := int64(math.MaxInt64 - 100)
	bigCount := make([]byte, 8+16*(MaxBatchPages+1))
	binary.LittleEndian.PutUint64(bigCount, MaxBatchPages+1)
	two := descs(0, 4096, 8192, 4096)
	return []verbRow{
		// READ
		{name: "read across the chunk boundary", want: verbOK, delta: statDelta{readOps: 1, bytesRead: 4096},
			call: on(func(r uint64) *call { return readCall(r, ChunkBytes-2048, 4096) })},
		{name: "read the last byte", want: verbOK, delta: statDelta{readOps: 1, bytesRead: 1},
			call: on(func(r uint64) *call { return readCall(r, confSize-1, 1) })},
		{name: "read of zero bytes", want: verbTerminal,
			call: on(func(r uint64) *call { return readCall(r, 0, 0) })},
		{name: "read of MaxIO+1", want: verbTerminal,
			call: on(func(r uint64) *call { return readCall(r, 0, MaxIO+1) })},
		{name: "read past the region", want: verbTerminal,
			call: on(func(r uint64) *call { return readCall(r, confSize-100, 4096) })},
		{name: "read at a negative offset", want: verbTerminal,
			call: on(func(r uint64) *call { return readCall(r, -4096, 4096) })},
		{name: "read whose end wraps past MaxInt64", want: verbTerminal,
			call: on(func(r uint64) *call { return readCall(r, wrap, 4096) })},
		{name: "read of an unknown region", want: verbLost,
			call: func(*verbState) *call { return readCall(unknown, 0, 4096) }},

		// WRITE
		{name: "write across the chunk boundary", want: verbOK, delta: statDelta{writeOps: 1, bytesWrite: 4096},
			call:  on(func(r uint64) *call { return writeCall(r, ChunkBytes-1000, stamp(4096, 0xA1)) }),
			wrote: func(sh []byte) { copy(sh[ChunkBytes-1000:], stamp(4096, 0xA1)) }},
		{name: "write of zero bytes", want: verbTerminal,
			call: on(func(r uint64) *call { return writeCall(r, 0, nil) })},
		{name: "write of MaxIO+1", want: verbTerminal,
			call: on(func(r uint64) *call { return writeCall(r, 0, make([]byte, MaxIO+1)) })},
		{name: "write past the region", want: verbTerminal,
			call: on(func(r uint64) *call { return writeCall(r, confSize-100, stamp(4096, 0xA2)) })},
		{name: "write whose end wraps past MaxInt64", want: verbTerminal,
			call: on(func(r uint64) *call { return writeCall(r, wrap, stamp(4096, 0xA3)) })},
		{name: "write to an unknown region", want: verbLost,
			call: func(*verbState) *call { return writeCall(unknown, 0, stamp(4096, 0xA4)) }},

		// READV
		{name: "readv of three pages of two sizes", want: verbOK, delta: statDelta{readOps: 3, bytesRead: 4096 + 512 + 4096},
			call: on(func(r uint64) *call { return readvCall(r, []int64{ChunkBytes - 2048, 0, 8192}, 4096, 512, 4096) })},
		{name: "readv of zero pages", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs()) })},
		{name: "readv of MaxBatchPages+1", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, bigCount) })},
		{name: "readv with no count", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, two[:5]) })},
		{name: "readv with a truncated table", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, two[:32]) })},
		{name: "readv with trailing table bytes", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, two, []byte{1, 2, 3}) })},
		{name: "readv with an empty descriptor", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs(0, 4096, 8192, 0)) })},
		{name: "readv with a descriptor of MaxIO+1", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs(0, MaxIO+1)) })},
		{name: "readv of more than MaxIO in all", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs(0, 5<<20, 0, 5<<20)) })},
		{name: "readv whose second descriptor is past the region", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs(0, 4096, confSize-100, 4096)) })},
		{name: "readv with a wrapping descriptor", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opReadV, r, descs(wrap, 4096)) })},
		{name: "readv of an unknown region", want: verbLost,
			call: func(*verbState) *call { return batchCall(opReadV, unknown, two) }},
		{name: "readv of no pages, as ReadVInto is asked", want: verbTerminal,
			call: on(func(r uint64) *call { return readvCall(r, []int64{}) })},
		{name: "readv whose second page is past the region, as ReadVInto shapes it", want: verbTerminal,
			call: on(func(r uint64) *call { return readvCall(r, []int64{0, confSize - 100}, 4096, 4096) })},
		{name: "readv with a wrapping page, as ReadVInto shapes it", want: verbTerminal,
			call: on(func(r uint64) *call { return readvCall(r, []int64{0, wrap}, 4096, 4096) })},
		{name: "readv of an unknown region, as ReadVInto shapes it", want: verbLost,
			call: func(*verbState) *call { return readvCall(unknown, []int64{0, 8192}, 4096, 4096) }},

		// WRITEV
		{name: "writev of two pages of two sizes", want: verbOK, delta: statDelta{writeOps: 2, bytesWrite: 4096 + 2048},
			call: on(func(r uint64) *call {
				return batchCall(opWriteV, r, descs(4096, 4096, ChunkBytes-1024, 2048), stamp(4096, 0xB1), stamp(2048, 0xB2))
			}),
			wrote: func(sh []byte) { copy(sh[4096:], stamp(4096, 0xB1)); copy(sh[ChunkBytes-1024:], stamp(2048, 0xB2)) }},
		{name: "writev of zero pages", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, descs()) })},
		{name: "writev of MaxBatchPages+1", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, bigCount) })},
		{name: "writev with a truncated table", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, two[:32]) })},
		{name: "writev whose descriptors cover more than the data", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, two, stamp(4096, 0xB3)) })},
		{name: "writev whose descriptors cover less than the data", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, descs(0, 4096), stamp(8192, 0xB4)) })},
		{name: "writev whose second descriptor is past the region", want: verbTerminal,
			call: on(func(r uint64) *call {
				return batchCall(opWriteV, r, descs(0, 4096, confSize-100, 4096), stamp(8192, 0xB5))
			})},
		{name: "writev with a wrapping descriptor", want: verbTerminal,
			call: on(func(r uint64) *call { return batchCall(opWriteV, r, descs(wrap, 4096), stamp(4096, 0xB6)) })},
		{name: "writev to an unknown region", want: verbLost,
			call: func(*verbState) *call { return batchCall(opWriteV, unknown, descs(0, 4096), stamp(4096, 0xB7)) }},
		{name: "writev of two pages of two sizes, as WriteV shapes it", want: verbOK, delta: statDelta{writeOps: 2, bytesWrite: 2048 + 4096},
			call: on(func(r uint64) *call {
				return writevCall(r, []int64{ChunkBytes - 512, 65536}, stamp(2048, 0xC1), stamp(4096, 0xC2))
			}),
			wrote: func(sh []byte) { copy(sh[ChunkBytes-512:], stamp(2048, 0xC1)); copy(sh[65536:], stamp(4096, 0xC2)) }},
		{name: "writev of an empty page, as WriteV is asked", want: verbTerminal,
			call: on(func(r uint64) *call { return writevCall(r, []int64{0, 4096}, stamp(4096, 0xC3), []byte{}) })},
		{name: "writev whose second page is past the region, as WriteV shapes it", want: verbTerminal,
			call: on(func(r uint64) *call {
				return writevCall(r, []int64{0, confSize - 100}, stamp(4096, 0xC4), stamp(4096, 0xC5))
			})},
		{name: "writev with a wrapping page, as WriteV shapes it", want: verbTerminal,
			call: on(func(r uint64) *call { return writevCall(r, []int64{wrap}, stamp(4096, 0xC6)) })},
		{name: "writev to an unknown region, as WriteV shapes it", want: verbLost,
			call: func(*verbState) *call { return writevCall(unknown, []int64{0}, stamp(4096, 0xC7)) }},

		// REGISTER, UNREGISTER
		{name: "register of zero bytes", want: verbTerminal,
			call: func(*verbState) *call { return &call{op: opRegister} }},
		{name: "register of a negative size", want: verbTerminal,
			call: func(*verbState) *call { return &call{op: opRegister, length: -5} }},
		{name: "register of more than the capacity", want: verbTerminal,
			call: func(*verbState) *call { return &call{op: opRegister, length: confCap + 1} }},
		{name: "register of more than what is left", want: verbTerminal,
			call: func(*verbState) *call { return &call{op: opRegister, length: confCap - confSize + 1} }},
		{name: "register", want: verbOK, delta: statDelta{regions: 1, used: 1 << 20},
			call: func(*verbState) *call { return &call{op: opRegister, length: 1 << 20} }},
		{name: "unregister", want: verbOK, delta: statDelta{regions: -1, used: -(1 << 20)},
			call: func(vs *verbState) *call { return &call{op: opUnregister, srvID: vs.fresh} }},
		{name: "unregister twice", want: verbLost,
			call: func(vs *verbState) *call { return &call{op: opUnregister, srvID: vs.fresh} }},

		// STAT, STATS, and no verb at all
		{name: "stat", want: verbOK, call: func(*verbState) *call { return &call{op: opStat} }},
		{name: "stats", want: verbOK, call: func(*verbState) *call { return &call{op: opProbe} }},
		{name: "unknown opcode", want: verbTerminal, call: func(*verbState) *call { return &call{op: 0xEE} }},
	}
}

// runVerbRows puts every row through c's link, and after each checks the
// four things a path could get wrong: the kind of outcome, the bytes
// that came back, what the server counted, and what the region holds —
// read back whole over the same link, which shows that it still serves.
// On the file link (kind "shm") a row the client could shape runs as
// the client runs it: refused by the client's shaping, or on the region
// file (runFile); a page verb on the attached region that runs anywhere
// else fails the test. Every other row rides the frames to exec.
func runVerbRows(t *testing.T, c *Client, kind string) {
	vs := &verbState{shadow: make([]byte, confSize)}
	rand.New(rand.NewSource(17)).Read(vs.shadow)
	var err error
	if vs.region, err = c.Register(confSize); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(vs.region, 0, vs.shadow); err != nil {
		t.Fatal(err)
	}
	if got := c.TransportKind(); got != kind {
		t.Fatalf("TransportKind = %q, want %q", got, kind)
	}
	st, err := c.getStream()
	if err != nil {
		t.Fatal(err)
	}
	exec := func(name string, proto *call) ([]byte, error) {
		if shaped, err := asClient(proto); kind == "shm" && shaped {
			if err != nil {
				return nil, err
			}
			if body, ran, err := st.runFile(proto, proto.srvID); ran {
				return body, err
			}
			if proto.srvID == vs.region {
				t.Fatalf("%s: the page verb did not run on the region file", name)
			}
		}
		ca := new(call)
		ca.arm(proto, proto.srvID)
		return roundTrip(st, ca)
	}
	for _, row := range verbRows() {
		before, err := c.Stat()
		if err != nil {
			t.Fatal(err)
		}
		var got verbClass
		proto := row.call(vs)
		body, err := exec(row.name, proto)
		switch {
		case err == nil:
			got = verbOK
			checkReply(t, row.name, vs, proto, body)
			PutBuf(body)
		case IsTerminal(err):
			got = verbTerminal
		case errors.Is(err, errRegionLost):
			got = verbLost
		default:
			t.Fatalf("%s: the link failed: %v", row.name, err)
		}
		after, err := c.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if got != row.want {
			t.Errorf("%s: %v, want %v", row.name, got, row.want)
		}
		if d := deltaOf(before, after); d != row.delta {
			t.Errorf("%s: the server's counters moved by %+v, want %+v", row.name, d, row.delta)
		}
		if row.wrote != nil && got == verbOK {
			row.wrote(vs.shadow)
		}
		whole, err := exec(row.name, readCall(vs.region, 0, confSize))
		if err != nil {
			t.Fatalf("%s: the stream no longer serves a valid read: %v", row.name, err)
		}
		if !bytes.Equal(whole, vs.shadow) {
			t.Fatalf("%s: the region does not hold what the accepted writes put there", row.name)
		}
		PutBuf(whole)
	}
}

// checkReply holds an accepted request's reply to the shadow copy.
func checkReply(t *testing.T, name string, vs *verbState, proto *call, body []byte) {
	t.Helper()
	switch proto.op {
	case opRegister:
		if len(body) != registerRespLen {
			t.Fatalf("%s: register reply of %d bytes", name, len(body))
		}
		vs.fresh = binary.LittleEndian.Uint64(body)
	case opRead:
		if !bytes.Equal(body, vs.shadow[proto.offset:proto.offset+proto.length]) {
			t.Errorf("%s: wrong bytes back", name)
		}
	case opReadV:
		for i, d := range proto.dst {
			if off := proto.offsets[i]; !bytes.Equal(d, vs.shadow[off:off+int64(len(d))]) {
				t.Errorf("%s: wrong bytes in page %d", name, i)
			}
		}
	case opStat, opProbe:
		if want := map[byte]int{opStat: statRespLen, opProbe: probeRespLen}[proto.op]; len(body) != want {
			t.Errorf("%s: reply of %d bytes, want %d", name, len(body), want)
		}
	}
}

// TestVerbConformance runs one table of requests — each verb, valid and
// in every way refusable — over TCP, where Server.exec runs every row,
// and over the file link, where a page verb the client shapes on the
// registered region is refused by that shaping or runs on the region
// file, and the rest still reach exec: both must read the same.
func TestVerbConformance(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		_, c := newPair(t, confCap)
		runVerbRows(t, c, "tcp-v2")
	})
	t.Run("shm", func(t *testing.T) {
		_, c := newShmPair(t, confCap)
		runVerbRows(t, c, "shm")
	})
}

// TestV1ClientRefused: whatever a connection opens with that is not a
// HELLO this server accepts — a v1 request, a HELLO offering version 1,
// a HELLO with another magic — gets one refusal naming the version
// required, in the HELLO response's framing, and the connection is
// closed. A client that is answered that way fails its op at once, for
// good.
func TestV1ClientRefused(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, first := range map[string][]byte{
		"a v1 REGISTER":              frame(opRegister, 0, 0, 1<<20, nil),
		"a HELLO offering version 1": frame(opHello, helloMagic, 1, 0, nil),
		"a HELLO with a bad magic":   frame(opHello, 0xDEAD_BEEF, protoV2, 0, nil),
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		resp, err := io.ReadAll(conn) // to EOF: the server hangs up
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp) < helloRespHdrLen || resp[0] != statusErr ||
			binary.LittleEndian.Uint64(resp[1:]) != uint64(len(resp)-helloRespHdrLen) ||
			!strings.Contains(string(resp[helloRespHdrLen:]), "v2 required") {
			t.Errorf("%s: answered %q, want one statusErr frame saying v2 required", name, resp)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [helloReqLen]byte
			io.ReadFull(conn, hello[:])
			msg := "protocol v3 required"
			resp := append([]byte{statusErr, byte(len(msg)), 0, 0, 0, 0, 0, 0, 0}, msg...)
			conn.Write(resp)
			conn.Close()
		}
	}()
	c, err := DialOptions(ln.Addr().String(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(1 << 20); !IsTerminal(err) || !strings.Contains(err.Error(), "v3 required") {
		t.Errorf("op against a server that refuses the HELLO: %v, want its refusal as a terminal error", err)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Reconnects != 0 {
		t.Errorf("a refused HELLO was retried: %+v", m)
	}
}
