// Wire framing on TCP: multiplexed, pipelined frames.
//
// Every frame carries a request ID, so one connection multiplexes many
// outstanding operations and responses complete out of order. The
// batched verbs READV/WRITEV move N pages in one frame — the transport
// analogue of the DES evictor's grouped writebacks
// (internal/core/evict.go).
//
// A connection opens with one HELLO exchange in a frame shape of its
// own, older than the request IDs, which every client build ever made
// can decode:
//
//	request:  op(1)=0xA5 magic(8) version(8) zero(8)
//	response: status(1) length(8) payload(length)
//
// A server answers a HELLO offering version 2 or later with OK and
// magic(8) version(8), followed by the optional shm advertisement
// (helloBody), and the connection speaks the frames below from then on.
// Anything else in the first 25 bytes gets one statusErr response
// naming the version the server requires, and the connection is closed.
//
// Frames, little-endian:
//
//	request:  op(1) id(8) regionID(8) offset(8) length(8) payload(...)
//	response: status(1) id(8) length(8) payload(length)
//
// Payload by op:
//
//	READ      none; length = bytes to read
//	WRITE     length bytes of data
//	REGISTER  none; length = region size
//	STAT      none
//	READV     count(8) then count×{offset(8) length(8)} descriptors;
//	          header length = payload bytes (8 + 16·count). The response
//	          payload is the descriptors' data, concatenated in order.
//	WRITEV    count(8), descriptors as READV, then the data for every
//	          descriptor concatenated in order.
//
// Batch verbs validate every descriptor before touching the region, so
// a batch either fully applies or fully fails — which keeps the
// idempotent-retry story identical to the single-page verbs.
package memnode

import (
	"encoding/binary"
	"fmt"
	"sync" //magevet:ok memnode is a real TCP service; the frame buffer pool is shared by client and server goroutines
)

// protoV2 is the wire protocol version, the only one spoken: the
// pipelined frames above. Version 1 was stop-and-wait without request
// IDs; a peer offering it is refused.
const protoV2 = 2

// The batch opcodes (the single-page ones are in memnode.go) and the
// connection preamble's.
const (
	opReadV  = 5
	opWriteV = 6
	opHello  = 0xA5
)

// helloMagic follows the opcode of a HELLO request and leads the HELLO
// response payload, so stray traffic can never be mistaken for a
// negotiation.
const helloMagic uint64 = 0x3250_5745_4741_4d21 // "!MAGEWP2" (LE)

// Frame-size constants.
const (
	helloReqLen     = 25 // op(1) magic(8) version(8) zero(8)
	helloRespHdrLen = 9  // status(1) length(8)
	helloRespLen    = 16 // magic(8) version(8)
	v2ReqHdrLen     = 33 // op(1) id(8) regionID(8) offset(8) length(8)
	v2RespHdrLen    = 17 // status(1) id(8) length(8)
)

// MaxBatchPages bounds the descriptor count of one READV/WRITEV frame.
const MaxBatchPages = 1024

// maxV2Payload bounds a request or response payload: the largest legal
// frame is a WRITEV carrying MaxIO bytes of data plus a full descriptor
// table. Anything larger is a protocol violation and terminates the
// connection.
const maxV2Payload = MaxIO + 8 + 16*MaxBatchPages

// writeBatch bounds how many frames one writev carries: the client's
// queued requests, or the replies a server connection has queued.
const writeBatch = 32

// iovec is one page-sized slot of a batched verb.
type iovec struct {
	off    int64
	length int64
}

// appendDescs encodes a batch's descriptor table — count, then
// {offsets[i], len(pages[i])} per page — into buf's storage, growing it
// only when it is too small.
func appendDescs(buf []byte, offsets []int64, pages [][]byte) []byte {
	n := 8 + 16*len(pages)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, uint64(len(pages)))
	for i, d := range pages {
		binary.LittleEndian.PutUint64(buf[8+16*i:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(buf[16+16*i:], uint64(len(d)))
	}
	return buf
}

// batchTableLen cuts a READV/WRITEV payload: the leading bytes that are
// its descriptor table, never more than a full one (MaxBatchPages
// descriptors); the rest is WRITEV's data (or READV's trailing garbage).
// A payload whose count is out of range or whose descriptors are cut
// short is cut where parseIovecs will refuse it.
func batchTableLen(payload []byte) int {
	if len(payload) < 8 {
		return len(payload)
	}
	n := binary.LittleEndian.Uint64(payload)
	if n > MaxBatchPages {
		return 8
	}
	// Subtracted form of 8+16n > len(payload), n bounded first.
	if int(n) > (len(payload)-8)/16 {
		return len(payload)
	}
	return 8 + 16*int(n)
}

// parseIovecs decodes and bounds-checks a batch descriptor table, the
// bytes batchTableLen cut. It returns the descriptors, in iovs' storage
// when that holds them, and the total data bytes they cover.
func parseIovecs(table []byte, iovs []iovec) (_ []iovec, total int64, err error) {
	if len(table) < 8 {
		return nil, 0, fmt.Errorf("batch: truncated count (have %d bytes)", len(table))
	}
	n := binary.LittleEndian.Uint64(table)
	if n == 0 || n > MaxBatchPages {
		return nil, 0, fmt.Errorf("batch: bad page count %d (max %d)", n, MaxBatchPages)
	}
	// Subtracted form, as in batchTableLen; a longer table's tail is
	// ignored.
	if int(n) > (len(table)-8)/16 {
		return nil, 0, fmt.Errorf("batch: truncated descriptors (%d pages, %d bytes)", n, len(table))
	}
	if cap(iovs) < int(n) {
		iovs = make([]iovec, n)
	}
	iovs = iovs[:n]
	for i := range iovs {
		iovs[i].off = int64(binary.LittleEndian.Uint64(table[8+16*i:]))
		iovs[i].length = int64(binary.LittleEndian.Uint64(table[16+16*i:]))
		if iovs[i].length <= 0 || iovs[i].length > MaxIO {
			return nil, 0, fmt.Errorf("batch: bad descriptor length %d", iovs[i].length)
		}
		total += iovs[i].length
		if total > MaxIO {
			return nil, 0, fmt.Errorf("batch: total %d exceeds MaxIO", total)
		}
	}
	return iovs, total, nil
}

// bufPool recycles payload buffers on both sides of the wire: the
// server's request payloads, and the client's response bodies. A buffer
// is pooled in a box, a *[]byte, since a slice put in a sync.Pool as it
// is would cost an allocation per Put; boxPool keeps the empty boxes, so
// that neither GetBuf nor PutBuf allocates once both pools are warm.
var bufPool, boxPool sync.Pool

// GetBuf returns a length-n buffer backed by the pool when a pooled
// buffer is large enough, allocating (with power-of-two rounding, 4 KiB
// minimum) otherwise. Contents are unspecified. It is PutBuf's twin: a
// caller that needs a scratch page (the pager's dry-pool fault) takes it
// here and gives it back there.
func GetBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxPool.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request; let it age out rather than hold
		// many undersized buffers captive.
	}
	c := 4096
	for c < n {
		c <<= 1
	}
	return make([]byte, n, c)
}

// PutBuf returns a buffer obtained from Client.Read (or any GetBuf
// caller) to the shared pool. Optional: unreturned buffers are simply
// garbage-collected. After PutBuf the caller must not touch b again.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxV2Payload {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPool.Put(box)
}
