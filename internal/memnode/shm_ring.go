// Shared-memory transport: SPSC ring views and doorbell flags.
//
// Each ring is single-producer/single-consumer: the client is the only
// producer of the submission ring and the only consumer of the
// completion ring, the server the reverse. Indices are free-running
// uint64s (slot = index & (entries-1)); each side trusts only its own
// local copy of the indices it owns and treats the peer-published words
// in the header page as hostile input — an implausible peer index
// (used > entries) poisons the stream instead of being dereferenced.
package memnode

import (
	"errors"
	"sync/atomic" //magevet:ok host-side shared-memory ring indices, not simulation state
	"time"
	"unsafe"
)

var errShmRingCorrupt = errors.New("memnode: shm ring state corrupt")

// shmWord returns the uint64 at a fixed header offset. All callers pass
// compile-time offsets that are 64-bit aligned (the mapping itself is
// page-aligned); the fuzz harness allocates its fake segments with
// make([]byte, n) for n ≥ 16, which the allocator also 8-byte aligns.
func shmWord(seg []byte, off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&seg[off]))
}

// shmRing is one direction's view of a ring. The producer side fills
// local/prod/cons as (next index to publish, shared word it publishes
// to, peer's shared consumer word); the consumer side mirrors that.
type shmRing struct {
	slots   []byte  // entries × shmSlotBytes, aliasing the segment
	entries uint64  // power of two
	mine    *uint64 // shared word this side publishes (prod for producer, cons for consumer)
	peer    *uint64 // shared word the peer publishes (hostile input)
	local   uint64  // authoritative local copy of *mine
}

func newShmRing(seg []byte, slotsOff int64, entries uint64, mine, peer int) shmRing {
	return shmRing{
		slots:   seg[slotsOff : slotsOff+int64(entries)*shmSlotBytes],
		entries: entries,
		mine:    shmWord(seg, mine),
		peer:    shmWord(seg, peer),
	}
}

func (r *shmRing) slot(idx uint64) []byte {
	off := (idx & (r.entries - 1)) * shmSlotBytes
	return r.slots[off : off+shmSlotBytes]
}

// producer side ---------------------------------------------------------

// full reports whether the ring has no free slot, per the peer's
// published consumer index. err is non-nil when that index is
// implausible (consumer ahead of producer, or lagging by more than the
// ring size), which only a corrupt or hostile peer can produce.
func (r *shmRing) full() (bool, error) {
	cons := atomic.LoadUint64(r.peer)
	used := r.local - cons
	if used > r.entries {
		return false, errShmRingCorrupt
	}
	return used == r.entries, nil
}

// produce encodes nothing itself: the caller writes into slot(r.local)
// and then calls publish, which makes the entry visible to the peer.
func (r *shmRing) publish() {
	r.local++
	atomic.StoreUint64(r.mine, r.local)
}

// consumer side ---------------------------------------------------------

// available returns how many entries are ready to consume. The peer's
// producer index is hostile: a lag of more than the ring size poisons.
func (r *shmRing) available() (uint64, error) {
	prod := atomic.LoadUint64(r.peer)
	n := prod - r.local
	if n > r.entries {
		return 0, errShmRingCorrupt
	}
	return n, nil
}

// advance retires the entry at slot(r.local) and publishes the new
// consumer index so the producer sees the freed slot.
func (r *shmRing) advance() {
	r.local++
	atomic.StoreUint64(r.mine, r.local)
}

// advanceLocal retires the entry at slot(r.local) without publishing;
// a burst consumer calls it per entry and commit once at the end,
// trading peer-visible latency (bounded by one burst) for one shared
// store per burst instead of one per entry.
func (r *shmRing) advanceLocal() { r.local++ }

// commit publishes the local index accumulated by advanceLocal calls.
func (r *shmRing) commit() { atomic.StoreUint64(r.mine, r.local) }

// doorbells -------------------------------------------------------------
//
// Each side, before blocking on its doorbell socket read, publishes
// "I am about to sleep" in its flag word and re-checks the ring (so a
// publish that raced the flag is never missed). A producer that has
// just published wakes the peer only when it can CAS the peer's flag
// from 1 to 0 — so each sleep episode costs at most one byte on the
// unix socket, and a busy consumer is never interrupted by a syscall.

func shmAnnounceSleep(flag *uint64)   { atomic.StoreUint64(flag, 1) }
func shmCancelSleep(flag *uint64)     { atomic.StoreUint64(flag, 0) }
func shmShouldWake(flag *uint64) bool { return atomic.CompareAndSwapUint64(flag, 1, 0) }

// shmBell is the doorbell byte. Its value carries nothing; the write is
// the wake-up.
var shmBell = []byte{1}

// shmEpoch anchors shmDeadline's monotonic clock.
var shmEpoch = time.Now() //magevet:ok monotonic anchor for real socket deadlines

// shmDeadline keeps a deadline armed on the doorbell socket without a
// timer modification per use. A doorbell write (and the completer's
// park) must stay bounded — a peer that never drains its socket has to
// poison the stream — but the bound need not be exact: due asks for a
// re-arm only when the armed deadline has less than half of span left,
// so an IO that starts now is still bounded by between span/2 and span,
// and a stream that parks per op modifies the runtime timer twice per
// span, not once per op. Safe for concurrent use; racing re-arms set
// deadlines a few microseconds apart.
type shmDeadline struct {
	until atomic.Int64 // when the armed deadline expires, as an offset from shmEpoch
}

// due returns the deadline to arm now, or false while the armed one
// still has at least span/2 left.
func (d *shmDeadline) due(span time.Duration) (time.Time, bool) {
	now := time.Since(shmEpoch) //magevet:ok real socket deadline bookkeeping
	if time.Duration(d.until.Load())-now >= span/2 {
		return time.Time{}, false
	}
	d.until.Store(int64(now + span))
	return shmEpoch.Add(now + span), true
}
