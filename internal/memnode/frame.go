// Wire protocol v2: multiplexed, pipelined frames.
//
// v1 (see the package comment in memnode.go) is strict stop-and-wait —
// one request in flight per connection, responses implicitly matched by
// order. v2 keeps the same verbs but stamps every frame with a request
// ID so a single connection can multiplex many outstanding operations,
// and adds the batched verbs READV/WRITEV that move N pages in one
// frame — the transport analogue of the DES evictor's grouped
// writebacks (internal/core/evict.go).
//
// Version negotiation piggybacks on v1: a v2 client opens with a HELLO
// request shaped exactly like a v1 request header. A v2 server answers
// with a v1-framed OK response carrying a magic + version payload and
// switches the connection to v2 framing; a v1 server answers
// "bad opcode" (statusErr) and the client silently falls back to v1
// stop-and-wait. Both directions therefore interoperate across
// versions with no out-of-band configuration.
//
// v2 framing, little-endian like v1:
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

// Protocol versions.
const (
	protoV1 = 1
	protoV2 = 2
)

// v2 opcodes (v1 opcodes live in memnode.go).
const (
	opReadV  = 5
	opWriteV = 6
	// opHello is the negotiation probe. It is deliberately far from the
	// v1 opcode range so a v1 server rejects it as a bad opcode (keeping
	// its connection healthy) instead of misinterpreting it.
	opHello = 0xA5
)

// helloMagic fills the regionID field of a HELLO request and leads the
// HELLO response payload, so stray v1 traffic can never be mistaken for
// a negotiation.
const helloMagic uint64 = 0x3250_5745_4741_4d21 // "!MAGEWP2" (LE)

// Frame-size constants.
const (
	v1ReqHdrLen  = 25 // op(1) regionID(8) offset(8) length(8)
	v1RespHdrLen = 9  // status(1) length(8)
	v2ReqHdrLen  = 33 // op(1) id(8) regionID(8) offset(8) length(8)
	v2RespHdrLen = 17 // status(1) id(8) length(8)
	helloRespLen = 16 // magic(8) version(8)
)

// MaxBatchPages bounds the descriptor count of one READV/WRITEV frame.
const MaxBatchPages = 1024

// maxV2Payload bounds a v2 request or response payload: the largest
// legal frame is a WRITEV carrying MaxIO bytes of data plus a full
// descriptor table. Anything larger is a protocol violation and
// terminates the connection.
const maxV2Payload = MaxIO + 8 + 16*MaxBatchPages

// iovec is one page-sized slot of a batched verb.
type iovec struct {
	off    int64
	length int64
}

// putIovecs encodes count + descriptors into a fresh slice of the exact
// encoded size (8 + 16·len(iovs) bytes).
func putIovecs(iovs []iovec) []byte {
	buf := make([]byte, 8+16*len(iovs))
	binary.LittleEndian.PutUint64(buf, uint64(len(iovs)))
	for i, v := range iovs {
		binary.LittleEndian.PutUint64(buf[8+16*i:], uint64(v.off))
		binary.LittleEndian.PutUint64(buf[16+16*i:], uint64(v.length))
	}
	return buf
}

// appendReadDescs encodes a READV's descriptor table — count, then
// {offsets[i], len(dst[i])} per page — into buf's storage, growing it
// only when it is too small.
func appendReadDescs(buf []byte, offsets []int64, dst [][]byte) []byte {
	n := 8 + 16*len(dst)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, uint64(len(dst)))
	for i, d := range dst {
		binary.LittleEndian.PutUint64(buf[8+16*i:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(buf[16+16*i:], uint64(len(d)))
	}
	return buf
}

// parseIovecs decodes and bounds-checks a batch descriptor table. It
// returns the descriptors, the number of payload bytes consumed, and the
// total data bytes the descriptors cover.
func parseIovecs(payload []byte) (iovs []iovec, consumed int, total int64, err error) {
	if len(payload) < 8 {
		return nil, 0, 0, fmt.Errorf("batch: truncated count (have %d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	if n == 0 || n > MaxBatchPages {
		return nil, 0, 0, fmt.Errorf("batch: bad page count %d (max %d)", n, MaxBatchPages)
	}
	consumed = 8 + 16*int(n)
	if len(payload) < consumed {
		return nil, 0, 0, fmt.Errorf("batch: truncated descriptors (%d pages, %d bytes)", n, len(payload))
	}
	iovs = make([]iovec, n)
	for i := range iovs {
		iovs[i].off = int64(binary.LittleEndian.Uint64(payload[8+16*i:]))
		iovs[i].length = int64(binary.LittleEndian.Uint64(payload[16+16*i:]))
		if iovs[i].length <= 0 || iovs[i].length > MaxIO {
			return nil, 0, 0, fmt.Errorf("batch: bad descriptor length %d", iovs[i].length)
		}
		total += iovs[i].length
		if total > MaxIO {
			return nil, 0, 0, fmt.Errorf("batch: total %d exceeds MaxIO", total)
		}
	}
	return iovs, consumed, total, nil
}

// bufPool recycles payload buffers on both sides of the wire: the
// server's per-request read and response buffers, and the client's
// response bodies. Buffers are pooled as *[]byte to keep the slice
// header off the heap.
var bufPool = sync.Pool{}

// getBuf returns a length-n buffer backed by the pool when a pooled
// buffer is large enough, allocating (with power-of-two rounding, 4 KiB
// minimum) otherwise. Contents are unspecified.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
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

// PutBuf returns a buffer obtained from Client.Read (or any getBuf
// caller) to the shared pool. Optional: unreturned buffers are simply
// garbage-collected. After PutBuf the caller must not touch b again.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Arena-backed shm read bodies go home to their arena, not the pool
	// (pooling a slice of a mapping that can be unmapped would be a
	// use-after-unmap wired into every later getBuf).
	if shmReleaseBuf(b) {
		return
	}
	if cap(b) > maxV2Payload {
		return
	}
	// Box a slice declared after the early returns: taking &b would make
	// the parameter escape and cost every caller a heap allocation, even
	// on the arena path above that never touches the pool.
	s := b[:0]
	bufPool.Put(&s)
}
