package memnode

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// fuzzServer builds a listener-less Server with one pre-registered
// 4 MiB region (ID 1) so READ/WRITE frames can hit a real target.
func fuzzServer() *Server {
	s := &Server{
		regions:  make(map[uint64][][]byte),
		sizes:    make(map[uint64]int64),
		nextID:   2,
		capacity: 64 << 20,
		used:     4 << 20,
		conns:    make(map[net.Conn]struct{}),
	}
	s.regions[1] = [][]byte{make([]byte, ChunkBytes), make([]byte, ChunkBytes)}
	s.sizes[1] = 4 << 20
	return s
}

func frame(op byte, regionID uint64, offset, length int64, payload []byte) []byte {
	buf := make([]byte, 25+len(payload))
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:], regionID)
	binary.LittleEndian.PutUint64(buf[9:], uint64(offset))
	binary.LittleEndian.PutUint64(buf[17:], uint64(length))
	copy(buf[25:], payload)
	return buf
}

// helloFrame is the connection preamble that opens the pipelined frames.
func helloFrame() []byte {
	return frame(opHello, helloMagic, protoV2, 0, nil)
}

// v2frame builds one v2 request frame.
func v2frame(op byte, id, regionID uint64, offset, length int64, payload []byte) []byte {
	buf := make([]byte, v2ReqHdrLen+len(payload))
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:], id)
	binary.LittleEndian.PutUint64(buf[9:], regionID)
	binary.LittleEndian.PutUint64(buf[17:], uint64(offset))
	binary.LittleEndian.PutUint64(buf[25:], uint64(length))
	copy(buf[v2ReqHdrLen:], payload)
	return buf
}

// v2stream prefixes frames with the HELLO, without which the server
// decodes none of them.
func v2stream(frames ...[]byte) []byte {
	out := helloFrame()
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// descs encodes a batch descriptor table (count + offset/length pairs).
func descs(pairs ...int64) []byte {
	n := len(pairs) / 2
	buf := make([]byte, 8+16*n)
	binary.LittleEndian.PutUint64(buf, uint64(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[8+16*i:], uint64(pairs[2*i]))
		binary.LittleEndian.PutUint64(buf[16+16*i:], uint64(pairs[2*i+1]))
	}
	return buf
}

// FuzzServeRequest feeds arbitrary byte streams straight into the
// request decoder. The server must never panic, never allocate
// unboundedly (bad lengths are rejected before allocation), and must
// always terminate the handler when the stream ends.
func FuzzServeRequest(f *testing.F) {
	// Seed corpus. First what a v1 peer would open with — frames without
	// a request ID, valid and hostile — all of which are now one input to
	// the preamble check: refused.
	f.Add(frame(opRegister, 0, 0, 1<<20, nil))
	f.Add(frame(opRead, 1, 4096, 4096, nil))
	f.Add(frame(opWrite, 1, 0, 8, []byte("pagedata")))
	f.Add(frame(opStat, 0, 0, 0, nil))
	f.Add(frame(opRead, 1, -4096, 4096, nil))                                     // negative offset
	f.Add(frame(opRead, 1, 0, MaxIO+1, nil))                                      // oversized read
	f.Add(frame(opWrite, 1, 0, 1<<40, nil))                                       // absurd write length
	f.Add(frame(opRegister, 0, 0, 1<<62, nil))                                    // absurd register size
	f.Add(frame(opRead, 999, 0, 4096, nil))                                       // unknown region
	f.Add(frame(0xEE, 0, 0, 0, nil))                                              // bad opcode
	f.Add([]byte{opWrite})                                                        // truncated header
	f.Add(append(frame(opWrite, 1, 0, 64, nil), "short"...))                      // truncated payload
	f.Add(append(frame(opStat, 0, 0, 0, nil), frame(opRead, 1, 0, 4096, nil)...)) // pipelined

	// v2 seeds: negotiation plus pipelined/batched/hostile v2 frames.
	f.Add(helloFrame())                                  // bare negotiation
	f.Add(frame(opHello, helloMagic, 1, 0, nil))         // stale version: refused
	f.Add(frame(opHello, 0xDEAD_BEEF, protoV2, 0, nil))  // bad magic: refused
	f.Add(v2stream(v2frame(opRead, 1, 1, 0, 4096, nil))) // valid v2 read
	f.Add(v2stream(v2frame(opStat, 2, 0, 0, 0, nil)))    // valid v2 stat
	f.Add(v2stream(v2frame(opRegister, 3, 0, 0, 1<<20, nil)))
	f.Add(v2stream(v2frame(opWrite, 4, 1, 0, 8, []byte("pagedata"))))
	f.Add(v2stream( // interleaved ids, disjoint pages
		v2frame(opWrite, 5, 1, 0, 8, []byte("pagedata")),
		v2frame(opRead, 7, 1, 8192, 4096, nil),
		v2frame(opWrite, 6, 1, 4096, 8, []byte("pagedata")),
	))
	f.Add(v2stream(v2frame(opReadV, 8, 1, 0, 40, descs(0, 4096, 8192, 4096)))) // valid batch read
	d := descs(0, 4096)
	f.Add(v2stream(v2frame(opWriteV, 9, 1, 0, int64(len(d))+4096, append(d, make([]byte, 4096)...)))) // valid batch write
	f.Add(v2stream(v2frame(opReadV, 10, 1, 0, 40, descs(0, 4096, 1<<40, 4096))))                      // out-of-bounds descriptor
	f.Add(v2stream(v2frame(opReadV, 11, 1, 0, 40, descs(0, MaxIO+1))))                                // oversized descriptor
	f.Add(v2stream(v2frame(opReadV, 12, 1, 0, 24, descs(0, 4096)[:24])))                              // truncated descriptors
	bigCount := make([]byte, 16)
	binary.LittleEndian.PutUint64(bigCount, 1<<40) // absurd batch count
	f.Add(v2stream(v2frame(opReadV, 13, 1, 0, 16, bigCount)))
	f.Add(v2stream(v2frame(opWriteV, 14, 1, 0, int64(len(d)), d)))        // descriptors but no data
	f.Add(v2stream(v2frame(opWrite, 15, 1, 0, maxV2Payload+1, nil)))      // framing violation: kills conn
	f.Add(v2stream(v2frame(opWrite, 16, 1, 0, -1, nil)))                  // negative payload length
	f.Add(v2stream(v2frame(0xEE, 17, 0, 0, 0, nil)))                      // bad v2 opcode
	f.Add(v2stream(v2frame(opRead, 18, 1, 0, 4096, nil)[:v2ReqHdrLen-3])) // truncated v2 header
	f.Add(v2stream(v2frame(opRead, 19, 999, 0, 4096, nil)))               // unknown region via v2
	f.Add(v2stream(v2frame(opHello, 20, helloMagic, protoV2, 0, nil)))    // HELLO inside v2: bad opcode
	// off+length overflow seeds: an offset near MaxInt64 wraps the naive
	// bounds sum negative, so these must be rejected, not executed.
	f.Add(frame(opRead, 1, math.MaxInt64-100, 4096, nil))
	f.Add(v2stream(v2frame(opRead, 21, 1, math.MaxInt64-100, 4096, nil)))
	f.Add(v2stream(v2frame(opReadV, 22, 1, 0, 24, descs(math.MaxInt64-100, 4096))))
	dov := descs(math.MaxInt64-100, 4096)
	f.Add(v2stream(v2frame(opWriteV, 23, 1, 0, int64(len(dov))+4096, append(dov, make([]byte, 4096)...))))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer()
		srvConn, cliConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.serve(srvConn)
			srvConn.Close()
		}()
		// Drain responses so serve never blocks on a full pipe.
		go io.Copy(io.Discard, cliConn)
		cliConn.Write(data)
		cliConn.Close()
		<-done
	})
}

// v2resp builds one v2 response frame as a hostile server would emit it.
func v2respFrame(status byte, id uint64, payload []byte) []byte {
	buf := make([]byte, v2RespHdrLen+len(payload))
	buf[0] = status
	binary.LittleEndian.PutUint64(buf[1:], id)
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(payload)))
	copy(buf[v2RespHdrLen:], payload)
	return buf
}

// FuzzClientDemux points a real pipelined client at a fake server that
// negotiates v2 and then replays arbitrary bytes as the response
// stream. The demux must never panic, never deliver a frame to the
// wrong call, and must resolve every pending op (success or error)
// even when the stream is garbage — duplicate IDs, unknown IDs,
// truncated or oversized frames, a READV answered with another length
// than its pages hold, all poison the stream, which fails all pending
// calls and surfaces a terminal error through the retry layer. One of
// the ops is a started READV: whatever the stream does to it, its hook
// runs once.
func FuzzClientDemux(f *testing.F) {
	page := make([]byte, 4096)
	// Clean completions for the three reads the harness issues (ids 1-3).
	f.Add(append(append(v2respFrame(statusOK, 1, page), v2respFrame(statusOK, 2, page)...), v2respFrame(statusOK, 3, page)...))
	// Out-of-order completion.
	f.Add(append(append(v2respFrame(statusOK, 3, page), v2respFrame(statusOK, 1, page)...), v2respFrame(statusOK, 2, page)...))
	// Unknown ID.
	f.Add(v2respFrame(statusOK, 999, page))
	// Duplicate ID.
	f.Add(append(v2respFrame(statusOK, 1, page), v2respFrame(statusOK, 1, page)...))
	// Error statuses.
	f.Add(v2respFrame(statusErr, 1, []byte("boom")))
	f.Add(v2respFrame(statusErrRegion, 2, []byte("unknown region")))
	// Truncated header / truncated payload / oversized length.
	f.Add(v2respFrame(statusOK, 1, page)[:5])
	f.Add(v2respFrame(statusOK, 1, page)[:v2RespHdrLen+100])
	huge := v2respFrame(statusOK, 1, nil)
	binary.LittleEndian.PutUint64(huge[9:], maxV2Payload+1)
	f.Add(huge)
	// Interleaved valid and garbage.
	f.Add(append(v2respFrame(statusOK, 2, page), 0xFF, 0x00, 0xAB))
	// The two two-page READVs (two of ids 1-5) answered in full, short,
	// long, and with an error.
	for id := uint64(1); id <= 5; id++ {
		f.Add(v2respFrame(statusOK, id, make([]byte, 8192)))
		f.Add(v2respFrame(statusOK, id, make([]byte, 8193)))
		f.Add(v2respFrame(statusOK, id, nil))
	}
	f.Add(append(v2respFrame(statusErr, 4, []byte("boom")), v2respFrame(statusOK, 1, page)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					if answerHello(conn) != nil {
						return
					}
					// Replay the fuzz bytes as the response stream, then
					// hang up so pending calls fail fast.
					conn.Write(data)
				}()
			}
		}()

		opts := DefaultOptions()
		opts.IOTimeout = 200 * time.Millisecond
		opts.MaxAttempts = 2
		opts.BaseBackoff = time.Millisecond
		opts.MaxBackoff = 2 * time.Millisecond
		c, err := DialOptions(ln.Addr().String(), opts)
		if err != nil {
			t.Skip(err)
		}
		defer c.Close()
		pend := []*Pending{
			c.ReadAsync(1, 0, 4096),
			c.ReadAsync(1, 4096, 4096),
			c.ReadAsync(1, 8192, 4096),
		}
		// A batched read into caller-owned pages rides the same stream: a
		// response of another length than its pages must fail it, never
		// fill it short or run over.
		buf := make([]byte, 2*4096+1)
		buf[2*4096] = 0xEE // the byte after the pages
		readv := make(chan error, 1)
		go func() { readv <- c.ReadVInto(1, []int64{0, 4096}, SplitPages(buf[:2*4096], 4096)) }()
		// And one that is started, not run: its hook is all that tells.
		hbuf := make([]byte, 2*4096+1)
		hbuf[2*4096] = 0xEE
		var hooked atomic.Int32
		started := make(chan error, 2)
		c.StartReadVInto(1, []int64{8192, 0}, SplitPages(hbuf[:2*4096], 4096), func(err error) {
			hooked.Add(1)
			started <- err
		})
		for _, ch := range []chan error{readv, started} {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("a READV hung on a hostile response stream")
			}
		}
		if buf[2*4096] != 0xEE || hbuf[2*4096] != 0xEE {
			t.Fatal("a READV response ran over its pages")
		}
		defer func() {
			c.Close() // whatever is left of the client's goroutines has had its chance
			if n := hooked.Load(); n != 1 {
				t.Fatalf("the started READV's hook ran %d times", n)
			}
		}()
		for _, p := range pend {
			select {
			case <-p.Done():
				if body, err := p.Wait(); err == nil {
					if len(body) != 4096 {
						t.Fatalf("demux delivered %d bytes for a 4096-byte read", len(body))
					}
					PutBuf(body)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("pending op hung on a hostile response stream")
			}
		}
	})
}
