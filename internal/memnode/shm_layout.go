// Shared-memory transport: segment layout and validation.
//
// The shm transport (DESIGN.md §13) moves page data through a single
// memfd-backed segment mapped by both sides instead of through socket
// payloads. The segment is created by the server per connection and
// handed to the client over a unix-domain socket via SCM_RIGHTS; its
// layout, fixed at handshake time, is:
//
//	[0, 4096)              header page (magic, version, geometry, token,
//	                       ring indices and doorbell flags — each index
//	                       on its own cache line)
//	[4096, …)              submission ring: entries × 64-byte slots,
//	                       produced by the client, consumed by the server
//	[…, …)                 completion ring: entries × 64-byte slots,
//	                       produced by the server, consumed by the client
//	[arenaOff, +arenaBytes) data arena: page payloads move by
//	                       (offset, length) descriptors into this area
//
// Submission-queue entry (64 bytes, little-endian):
//
//	op(1) pad(7) id(8) regionID(8) offset(8) length(8) extOff(8) extCap(8) pad(8)
//
// extOff/extCap name the arena extent the client allocated for this
// operation: request payloads (WRITE data, batch descriptor tables) are
// staged there by the client, and response data (READ pages, REGISTER
// ids, STAT blobs, error messages) is written there by the server. The
// client owns arena allocation entirely; the server only validates that
// every extent lies inside the arena and never writes outside one.
//
// Completion-queue entry (64 bytes):
//
//	status(1) pad(7) id(8) length(8) pad(40)
//
// The completion deliberately carries no arena offset: the client
// resolves the id against its own pending table and uses the extent *it*
// recorded at submission, so a hostile server cannot redirect a
// completion into memory the call does not own. Every field read from
// shared memory is validated with the same hostility as wire frames — a
// corrupt ring poisons the stream (all pending calls fail, the client
// re-dials), never the process.
package memnode

import (
	"encoding/binary"
	"fmt"
)

// shmVersion is the shared-segment layout version. Bumped on any layout
// change; mismatches refuse the handshake and fall back to TCP.
const shmVersion = 1

// shmSegMagic stamps the header page so a client never treats a foreign
// mapping as a memnode segment.
const shmSegMagic uint64 = 0x3343_4553_4547_414d // "MAGESEC3" (LE)

// shmHelloMagic opens the unix-socket handshake that precedes fd
// passing; it is distinct from the segment and TCP magics so stray
// traffic on the socket cannot start a handshake.
const shmHelloMagic uint64 = 0x4d48_5345_4741_4d21 // "!MAGESHM" (LE)

// helloFlagShm, set in the flags word of an extended TCP HELLO
// response, advertises that the server also serves the shm transport.
const helloFlagShm uint64 = 1 << 0

// Segment geometry.
const (
	shmHdrBytes  = 4096
	shmSlotBytes = 64

	// Ring-size bounds. Entries are a power of two so slot indexing is a
	// mask; the minimum keeps even tiny windows batched, the maximum
	// bounds a hostile handshake's allocation.
	shmMinEntries = 64
	shmMaxEntries = 8192

	// Arena bounds. The minimum leaves room for the small-extent pool
	// plus one maximal batch; the maximum bounds the tmpfs commitment a
	// hostile client can demand.
	shmMinArenaBytes = 1 << 20
	shmMaxArenaBytes = 1 << 30

	// shmSmallExtBytes is the fixed size of the pre-carved small-extent
	// pool at the start of the arena — one slot comfortably holds a
	// page-sized op (4 KiB data plus headroom for descriptor tables and
	// error messages). Larger transfers allocate from the first-fit
	// region behind the pool.
	shmSmallExtBytes = 32 << 10
)

// Header-page field offsets. Ring indices and doorbell flags sit on
// separate cache lines: each word has exactly one writer (the side named
// in the comment), and the peer only reads it.
const (
	shmOffMagic      = 0
	shmOffVersion    = 8
	shmOffEntries    = 16
	shmOffArenaOff   = 24
	shmOffArenaBytes = 32
	shmOffToken      = 40
	shmOffSqProd     = 128 // written by client
	shmOffSqCons     = 192 // written by server
	shmOffCqProd     = 256 // written by server
	shmOffCqCons     = 320 // written by client
	shmOffSrvSleep   = 384 // set by server before sleeping, cleared by client's doorbell CAS
	shmOffCliSleep   = 448 // set by client before sleeping, cleared by server's doorbell CAS
)

// Submission-queue entry field offsets.
const (
	sqeOp     = 0
	sqeID     = 8
	sqeRegion = 16
	sqeOffset = 24
	sqeLength = 32
	sqeExtOff = 40
	sqeExtCap = 48
)

// Completion-queue entry field offsets.
const (
	cqeStatus = 0
	cqeID     = 8
	cqeLength = 16
)

// shmLayout is the negotiated geometry of one segment. The server
// derives it from the client's requested window, stamps it into the
// header page, and repeats it in the handshake response; the client
// cross-validates the two against the mapped size before trusting
// either.
type shmLayout struct {
	entries    uint64 // ring slots (power of two)
	arenaOff   int64
	arenaBytes int64
	segBytes   int64
	token      uint64
}

// shmLayoutFor sizes a segment for a client window. Rings get twice the
// window (rounded up to a power of two) so a full ring always means a
// broken peer, never backpressure; the arena gets the small-extent pool
// plus room for two maximal batch transfers.
func shmLayoutFor(window int, token uint64) shmLayout {
	if window < 1 {
		window = 1
	}
	want := uint64(2 * (window + 8))
	entries := uint64(shmMinEntries)
	for entries < want && entries < shmMaxEntries {
		entries <<= 1
	}
	arenaBytes := int64(window+8)*shmSmallExtBytes + 2*(MaxIO+shmSmallExtBytes)
	if arenaBytes > shmMaxArenaBytes {
		arenaBytes = shmMaxArenaBytes
	}
	// Page-align the arena so its extents never straddle the rings.
	rings := int64(2*entries) * shmSlotBytes
	arenaOff := (shmHdrBytes + rings + 4095) &^ 4095
	return shmLayout{
		entries:    entries,
		arenaOff:   arenaOff,
		arenaBytes: arenaBytes,
		segBytes:   arenaOff + arenaBytes,
		token:      token,
	}
}

// validate rejects any geometry a hostile or mismatched peer could use
// to push ring or arena accesses outside the mapping. mappedBytes is
// the authoritative size of the received segment (from fstat), not the
// peer's claim.
func (l shmLayout) validate(mappedBytes int64) error {
	if l.entries < shmMinEntries || l.entries > shmMaxEntries || l.entries&(l.entries-1) != 0 {
		return fmt.Errorf("shm: bad ring size %d", l.entries)
	}
	if l.arenaBytes < shmMinArenaBytes || l.arenaBytes > shmMaxArenaBytes {
		return fmt.Errorf("shm: bad arena size %d", l.arenaBytes)
	}
	rings := int64(2*l.entries) * shmSlotBytes
	// arenaOff < shmHdrBytes+rings, split so the addition cannot wrap
	// (arenaOff is peer-controlled and may be negative).
	if l.arenaOff < shmHdrBytes || l.arenaOff-shmHdrBytes < rings || l.arenaOff%4096 != 0 {
		return fmt.Errorf("shm: bad arena offset %d (rings end at %d)", l.arenaOff, shmHdrBytes+rings)
	}
	// arenaOff + arenaBytes > segBytes, in overflow-safe subtracted form.
	if l.segBytes < 0 || l.arenaBytes > l.segBytes || l.arenaOff > l.segBytes-l.arenaBytes {
		return fmt.Errorf("shm: arena [%d,+%d) outside segment %d", l.arenaOff, l.arenaBytes, l.segBytes)
	}
	if mappedBytes < l.segBytes {
		return fmt.Errorf("shm: segment claims %d bytes, backing holds %d", l.segBytes, mappedBytes)
	}
	return nil
}

// stamp writes the layout into a segment's header page.
func (l shmLayout) stamp(seg []byte) {
	binary.LittleEndian.PutUint64(seg[shmOffMagic:], shmSegMagic)
	binary.LittleEndian.PutUint64(seg[shmOffVersion:], shmVersion)
	binary.LittleEndian.PutUint64(seg[shmOffEntries:], l.entries)
	binary.LittleEndian.PutUint64(seg[shmOffArenaOff:], uint64(l.arenaOff))
	binary.LittleEndian.PutUint64(seg[shmOffArenaBytes:], uint64(l.arenaBytes))
	binary.LittleEndian.PutUint64(seg[shmOffToken:], l.token)
}

// checkStamp cross-validates a mapped segment's header against the
// handshake-negotiated layout. Both copies come from the peer, but they
// travel different paths (socket message vs segment memory); agreement
// is required before the client trusts the geometry.
func (l shmLayout) checkStamp(seg []byte) error {
	if got := binary.LittleEndian.Uint64(seg[shmOffMagic:]); got != shmSegMagic {
		return fmt.Errorf("shm: bad segment magic %#x", got)
	}
	if got := binary.LittleEndian.Uint64(seg[shmOffVersion:]); got != shmVersion {
		return fmt.Errorf("shm: segment version %d, want %d", got, shmVersion)
	}
	if got := binary.LittleEndian.Uint64(seg[shmOffEntries:]); got != l.entries {
		return fmt.Errorf("shm: segment rings %d, handshake said %d", got, l.entries)
	}
	if got := binary.LittleEndian.Uint64(seg[shmOffArenaOff:]); got != uint64(l.arenaOff) {
		return fmt.Errorf("shm: segment arena offset %d, handshake said %d", got, l.arenaOff)
	}
	if got := binary.LittleEndian.Uint64(seg[shmOffArenaBytes:]); got != uint64(l.arenaBytes) {
		return fmt.Errorf("shm: segment arena size %d, handshake said %d", got, l.arenaBytes)
	}
	if got := binary.LittleEndian.Uint64(seg[shmOffToken:]); got != l.token {
		return fmt.Errorf("shm: segment token mismatch")
	}
	return nil
}

// sqEntry is one decoded submission-ring slot. All fields are
// attacker-controlled shared-memory input until validated.
type sqEntry struct {
	op       byte
	id       uint64
	regionID uint64
	offset   int64
	length   int64
	extOff   uint64
	extCap   uint64
}

func decodeSQE(slot []byte) sqEntry {
	return sqEntry{
		op:       slot[sqeOp],
		id:       binary.LittleEndian.Uint64(slot[sqeID:]),
		regionID: binary.LittleEndian.Uint64(slot[sqeRegion:]),
		offset:   int64(binary.LittleEndian.Uint64(slot[sqeOffset:])),
		length:   int64(binary.LittleEndian.Uint64(slot[sqeLength:])),
		extOff:   binary.LittleEndian.Uint64(slot[sqeExtOff:]),
		extCap:   binary.LittleEndian.Uint64(slot[sqeExtCap:]),
	}
}

func encodeSQE(slot []byte, e sqEntry) {
	slot[sqeOp] = e.op
	binary.LittleEndian.PutUint64(slot[sqeID:], e.id)
	binary.LittleEndian.PutUint64(slot[sqeRegion:], e.regionID)
	binary.LittleEndian.PutUint64(slot[sqeOffset:], uint64(e.offset))
	binary.LittleEndian.PutUint64(slot[sqeLength:], uint64(e.length))
	binary.LittleEndian.PutUint64(slot[sqeExtOff:], e.extOff)
	binary.LittleEndian.PutUint64(slot[sqeExtCap:], e.extCap)
}

// cqEntry is one decoded completion-ring slot.
type cqEntry struct {
	status byte
	id     uint64
	length int64
}

func decodeCQE(slot []byte) cqEntry {
	return cqEntry{
		status: slot[cqeStatus],
		id:     binary.LittleEndian.Uint64(slot[cqeID:]),
		length: int64(binary.LittleEndian.Uint64(slot[cqeLength:])),
	}
}

func encodeCQE(slot []byte, e cqEntry) {
	slot[cqeStatus] = e.status
	binary.LittleEndian.PutUint64(slot[cqeID:], e.id)
	binary.LittleEndian.PutUint64(slot[cqeLength:], uint64(e.length))
}

// extentInArena reports whether [extOff, extOff+extCap) lies inside an
// arena of arenaBytes bytes, in unsigned overflow-safe form.
func extentInArena(extOff, extCap uint64, arenaBytes int64) bool {
	ab := uint64(arenaBytes)
	return extCap <= ab && extOff <= ab-extCap
}
