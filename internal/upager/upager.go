// Package upager is a user-level pager: it manages a small local page
// arena over a far-memory backing store, giving real host services the
// same fault/evict mechanics the DES models — a demand fault that reads
// its page straight into the frame it took, frame reclaim that picks its
// victims by how often a page was pinned (S3-FIFO, see selection.go), and
// a dedicated write-behind evictor whose step sweeps dirty victims into a
// batch, sends it as one WRITEV and settles it, as Flush does its batches
// (the stages of the paper's P2 pipeline at depth one, in userspace).
//
// The pager is the userspace mirror of the kernel data path the paper
// instruments: Pin is the page fault, the evictor is the reclaim
// thread, and the Stats counters expose the fault/eviction balance the
// paper's controller steers by. Concurrent faults on one page coalesce
// on a per-page latch, so a hot miss costs one wire read however many
// goroutines hit it; a caller that knows which pages it is about to pin
// can start their faults together with FaultAhead, one READV for the
// lot (P2 again, on the fault side). A page the pager has never written
// back is zeros in far memory, so its fault clears a frame and reads
// nothing, as the DES's FaultFetchZero does.
package upager

import (
	"errors"
	"fmt"
	"sync"        //magevet:ok real-host pager over a live network client: per-page latches and one metadata mutex
	"sync/atomic" //magevet:ok lock-free fault/eviction balance counters read by monitoring
	"time"

	"mage/internal/invariant"
	"mage/internal/memnode"
	"mage/internal/stats"
)

// far is the one shape of far memory the pager knows. memnode.Client and
// memcluster.Cluster are far; New wraps any other Backing in frozen.go's
// adapter. A read's buffers are lent until it returns or done has been
// called — once, wherever the read ended, holding no lock of the
// backing's, before StartReadVInto returns if it was refused on the spot.
//
// The pager reads only pages it has written back. That rests on the
// region: Register returns one that reads zero until written, and only
// the pager that registered it writes it, so a page never written back
// holds zeros and its fault needs no read.
type far interface {
	Register(size int64) (uint64, error)
	ReadVInto(handle uint64, offsets []int64, dst [][]byte) error
	StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error))
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
}

// ErrClosed is returned by Pin after Close.
var ErrClosed = errors.New("upager: pager closed")

// Page lifecycle. Transitions happen under Pager.mu; a page in a
// transient state (faulting/evicting) has a latch channel that is closed
// when the transition completes, so concurrent pinners wait without
// spinning. A batch's pages share the latch their batch was claimed
// under; the page of a lone demand fault gets one only when a second
// pinner turns up to wait on it, which it mostly does not.
const (
	pageAbsent   = iota // only in far memory
	pageFaulting        // one fault in flight; pinners wait on latch
	pageResident        // in a local frame
	pageEvicting        // write-behind in flight; pinners wait on latch
)

const noPage = ^uint64(0)

// page is one entry of the page table: 24 bytes, which at 65,536 pages
// is the pager's largest allocation after the arena.
type page struct {
	state int8
	dirty bool
	freq  uint8 // pins since it was queued, saturating at maxFreq
	flags uint8 // flagUntouched, flagStored
	pins  int32
	frame int32
	ghost uint32 // selection's stamp of its eviction from small; 0 is none
	latch chan struct{}
}

// A page's flags. flagStored is set under Pager.mu when a writeback of
// the page is sent, and never cleared: a WRITEV that failed, or reached
// only some replicas, leaves the page dirty, so it is sent again before
// its frame is let go, and a later fault reads far memory either way.
const (
	flagUntouched uint8 = 1 << iota // installed by FaultAhead, its first Pin still to come
	flagStored                      // a writeback was sent: a fault reads far memory, not zeros
)

// Options sizes a Pager. The zero value of every field selects a
// default; the evictor's batch and free-frame target follow from frames.
type Options struct {
	// PageBytes is the page size (default 4096).
	PageBytes int64
	// This field does nothing: the pager reads only the pages it is
	// asked for. It stays because callers that cannot be edited set it.
	NoPrefetch bool

	// noEvictor, set only by tests, starts no evictor goroutine: eviction
	// is evictSome, a step the test calls, or that a fault which finds
	// the pool dry runs itself, on its own goroutine. The step fills the
	// evictor's batch, so a pager made so is driven from one goroutine.
	noEvictor bool
}

// Pager pages a numPages*PageBytes region through a frames-sized local
// arena.
type Pager struct {
	far       far
	handle    uint64
	pageBytes int64
	numPages  uint64
	frames    int
	batch     int
	lowWater  int
	noEvictor bool

	mu     sync.Mutex // guards pages, owner, sel, closed, holds, arena, fills, the pool, faultLat
	pages  []page
	owner  []uint64   // frame -> resident page, noPage when free or on the wire
	sel    *selection // the resident frames, queued for eviction
	closed bool

	// The free-frame pool: a stack of the frames no page owns and no fault,
	// fill or writeback holds. lent counts those held (taken from the pool
	// by a fault or a fill, or swept onto the evictor's batch, and not yet
	// installed or given back), so that free + owned + lent is frames.
	// A fault that finds the pool dry waits on freed, which putFrame
	// signals while waiters says someone waits, and Close broadcasts.
	free    []int32
	lent    int
	waiters int
	freed   sync.Cond

	// arena is the frames, mapped outside the Go heap where the platform
	// allows (mapArena). holds counts who may touch it with p.mu dropped:
	// every pin, a demand fault from its claim, a writeback batch, and
	// Close while it drains. The last hold dropped on a closed pager
	// unmaps the arena and sets it nil (see drop).
	arena []byte
	holds int

	kickC chan struct{} // nudges the evictor (buffered 1)
	stopC chan struct{}
	doneC chan struct{} // evictor exited

	faultIO []faultIO      // by frame: the read a demand fault makes into it
	fillWG  sync.WaitGroup // fills claimed and not yet installed; Close drains them
	fills   []*fill        // fill scratch between batches
	evict   wbatch         // the evictor's batch, refilled by every sweep

	// Fault/eviction balance counters (the paper's steering signals).
	faults      atomic.Uint64
	faultsAhead atomic.Uint64
	zeroFills   atomic.Uint64
	frameWaits  atomic.Uint64
	hits        atomic.Uint64
	coalesced   atomic.Uint64
	evictions   atomic.Uint64
	refaults    atomic.Uint64
	cleanDrops  atomic.Uint64
	wbBatches   atomic.Uint64
	wbPages     atomic.Uint64
	wbErrors    atomic.Uint64

	faultLat *stats.Histogram // one sample per fault, recorded at its install
}

// New registers a numPages-page region on backing and returns a pager
// holding frames local frames over it. frames bounds local memory: the
// remote:local ratio of an experiment is numPages/frames. On unix the
// frames are one anonymous mapping outside the Go heap, so the
// collector's headroom does not grow with them: a process paging through
// 32 MiB of frames peaks near 47 MiB, its frames plus about 15 MiB of
// heap and runtime, where a heap arena cost twice the frames plus that.
// The DES charges the frames alone. A race build, or another platform,
// keeps them on the heap.
func New(backing Backing, numPages uint64, frames int, opts Options) (*Pager, error) {
	if numPages == 0 {
		return nil, errors.New("upager: zero-page region")
	}
	if frames <= 0 {
		return nil, errors.New("upager: need at least one local frame")
	}
	pb := opts.PageBytes
	if pb <= 0 {
		pb = 4096
	}
	// A writeback batch is 32 pages, or half the frames when that is fewer.
	// The evictor keeps min(frames/8, batch) frames free, and at least one:
	// 32 of 8,192 frames, an eighth of a pool of 256 or fewer. Neither
	// passes half the frames, so that a fresh fault is not evicted just to
	// meet the free-pool target.
	batch := min(32, memnode.MaxBatchPages, max(frames/2, 1))
	low := max(min(frames/8, batch), 1)
	arena, err := mapArena(int64(frames) * pb)
	if err != nil {
		return nil, fmt.Errorf("upager: map %d frames: %w", frames, err)
	}
	f, ok := backing.(far)
	if !ok {
		f = adapter{backing}
	}
	handle, err := f.Register(int64(numPages) * pb)
	if err != nil {
		unmapArena(arena)
		return nil, fmt.Errorf("upager: register backing region: %w", err)
	}
	p := &Pager{
		far:       f,
		handle:    handle,
		pageBytes: pb,
		numPages:  numPages,
		frames:    frames,
		batch:     batch,
		lowWater:  low,
		noEvictor: opts.noEvictor,
		arena:     arena,
		pages:     make([]page, numPages),
		owner:     make([]uint64, frames),
		faultIO:   make([]faultIO, frames),
		sel:       newSelection(frames),
		free:      make([]int32, frames),
		kickC:     make(chan struct{}, 1),
		stopC:     make(chan struct{}),
		doneC:     make(chan struct{}),
		faultLat:  stats.NewHistogram(),
	}
	p.freed.L = &p.mu
	p.evict = wbatch{p: p, evict: true}
	for f := range frames {
		p.owner[f] = noPage
		p.free[frames-1-f] = int32(f) // frame 0 on top
	}
	if p.noEvictor {
		close(p.doneC)
	} else {
		go p.evictLoop() //magevet:ok real-host pager: the dedicated write-behind evictor thread
	}
	return p, nil
}

// Frame is a pinned view of one resident page. Data aliases the arena;
// it is valid until Unpin, after which the frame may be evicted and
// reused — or, once the pager is closed, unmapped. A pin held across
// Close keeps the arena, so Data stays valid until that Unpin. Write
// access requires having pinned with write=true, which marks the page
// dirty for write-behind.
type Frame struct {
	Data []byte
	p    *Pager
	pg   uint64
}

// Unpin releases the pin. The Frame must not be used afterwards.
func (f Frame) Unpin() {
	p := f.p
	p.mu.Lock()
	pd := &p.pages[f.pg]
	pd.pins--
	// A fault may be blocked on a free frame with every frame pinned;
	// this unpin could be the one that makes a victim available.
	if pd.pins == 0 && len(p.free) < p.lowWater {
		p.kick()
	}
	arena := p.drop()
	p.mu.Unlock()
	releaseArena(arena)
}

// Pin faults page pg into the local arena (if needed) and pins it. A
// write pin marks the page dirty; its mutations are persisted by the
// write-behind evictor or Flush. Concurrent Pins of one absent page
// coalesce onto a single backing read.
//
// A pin is a reference, not a lock: it keeps the page in its frame and
// orders nothing between the goroutines that hold one. Two write pins of
// one page may be held at once, and whether their stores may touch the
// same bytes is the callers' to settle — as it is one level down, where
// memnode and memcluster take one logical writer per page for granted.
func (p *Pager) Pin(pg uint64, write bool) (Frame, error) {
	if pg >= p.numPages {
		return Frame{}, fmt.Errorf("upager: page %d out of range [0,%d)", pg, p.numPages)
	}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return Frame{}, ErrClosed
		}
		pd := &p.pages[pg]
		switch pd.state {
		case pageResident:
			frame := p.hit(pd, write)
			p.mu.Unlock()
			p.hits.Add(1)
			return p.frameView(pg, frame), nil
		case pageFaulting, pageEvicting:
			if pd.latch == nil {
				pd.latch = make(chan struct{})
			}
			latch := pd.latch
			p.mu.Unlock()
			p.coalesced.Add(1)
			<-latch
			// Retry: faulting pages land resident; evicted pages need a
			// fresh fault.
		case pageAbsent:
			pd.state = pageFaulting
			p.holds++ // the fault's, and then its pin's
			stored := pd.flags&flagStored != 0
			frame := p.popFrame()
			p.mu.Unlock()
			return p.faultIn(pg, write, stored, frame)
		}
	}
}

// PinResident pins page pg for reading if it is resident, and reports
// whether it did: a page that is absent, faulting or evicting, out of
// range, or a closed pager, gets no pin. It never faults, waits or sends
// anything, and takes p.mu and no other lock, so a caller may hold a lock
// of its own across it (magecache holds an index shard's: lock order
// shard → p.mu; the pager never calls into its caller, and the hooks of
// its reads and writes take only p.mu). A pin it takes counts as a hit,
// as Pin's does.
func (p *Pager) PinResident(pg uint64) (Frame, bool) {
	if pg >= p.numPages {
		return Frame{}, false
	}
	p.mu.Lock()
	pd := &p.pages[pg]
	if p.closed || pd.state != pageResident {
		p.mu.Unlock()
		return Frame{}, false
	}
	frame := p.hit(pd, false)
	p.mu.Unlock()
	p.hits.Add(1)
	return p.frameView(pg, frame), true
}

// hit pins pd, which is resident, and returns its frame. p.mu is held.
func (p *Pager) hit(pd *page, write bool) int32 {
	pd.pins++
	p.holds++
	if write {
		pd.dirty = true
	}
	pd.touch()
	return pd.frame
}

func (p *Pager) frameView(pg uint64, frame int32) Frame {
	return Frame{Data: p.frameData(frame), p: p, pg: pg}
}

func (p *Pager) frameData(frame int32) []byte {
	off := int64(frame) * p.pageBytes
	return p.arena[off : off+p.pageBytes : off+p.pageBytes]
}

// faultIn runs the major-fault path for a page the caller claimed as
// pageFaulting, taking frame from the pool with it (-1 when the pool was
// dry): read the page into a frame, install. A fault that got a frame
// reads straight into it; one that found the pool dry reads first and
// waits for a frame while the read flies (readBeforeFrame). A page that
// was never stored is zeros in far memory: its fault clears a frame
// instead, and with no read to overlap it waits for one in takeFrame.
// The install is the fault's second and last hold of p.mu, and records
// its latency, sampled before the lock.
func (p *Pager) faultIn(pg uint64, write, stored bool, frame int32) (Frame, error) {
	start := monoNow()
	p.faults.Add(1)
	off := int64(pg) * p.pageBytes

	var err error
	switch {
	case stored && frame >= 0:
		err = p.readInto(frame, off)
	case stored:
		frame, err = p.readBeforeFrame(off)
	case frame < 0:
		frame, err = p.takeFrame()
	}
	if frame < 0 || err != nil {
		p.abortFault(pg, frame)
		if frame < 0 {
			return Frame{}, err
		}
		return Frame{}, fmt.Errorf("upager: fault-in page %d: %w", pg, err)
	}
	if !stored {
		clear(p.frameData(frame))
		p.zeroFills.Add(1)
	}

	lat := monoNow() - start
	p.mu.Lock()
	pd := &p.pages[pg]
	pd.state = pageResident
	pd.frame = frame
	pd.dirty = write
	pd.pins = 1
	p.owner[frame] = pg
	p.lent--
	refault := p.sel.admit(pd, frame, false)
	pd.openLatch()
	p.faultLat.Record(lat)
	p.checkQueues(false)
	p.mu.Unlock()
	if refault {
		p.refaults.Add(1)
	}
	return p.frameView(pg, frame), nil
}

// epoch is where the fault clock starts.
var epoch = time.Now() //magevet:ok real-host pager: fault service time is a reported metric

// monoNow is the fault clock, in nanoseconds since epoch: one read of
// the monotonic clock, where time.Now reads the wall clock as well.
func monoNow() int64 {
	return int64(time.Since(epoch)) //magevet:ok real-host pager: fault service time is a reported metric
}

// faultIO is the one-page read of a demand fault into its frame, as the
// one-element lists ReadVInto takes. There is one per frame, used only
// by the fault that holds the frame, so a fault allocates none.
type faultIO struct {
	off [1]int64
	dst [1][]byte
}

// readInto reads the page at off straight into frame, which the fault
// has taken: one ReadVInto of one page, which memnode sends as a READ
// whose body lands in the frame — no future, no buffer, no second copy.
func (p *Pager) readInto(frame int32, off int64) error {
	io := &p.faultIO[frame]
	io.off[0], io.dst[0] = off, p.frameData(frame)
	p.checkStored(io.off[:], false)
	return p.far.ReadVInto(p.handle, io.off[:], io.dst[:])
}

// checkStored is the magecheck build's invariant over a read the pager
// is about to send: every page it names has been stored, for a page that
// was not is zeros in far memory and faults in without a read. locked
// says the caller holds p.mu; otherwise the check takes it. A failed
// check drops it before it panics, so that a deferred Close still runs.
// Without the tag it compiles to nothing.
func (p *Pager) checkStored(offs []int64, locked bool) {
	if !invariant.Enabled {
		return
	}
	if !locked {
		p.mu.Lock()
	}
	for _, off := range offs {
		if pg := off / p.pageBytes; p.pages[pg].flags&flagStored == 0 {
			p.mu.Unlock()
			invariant.Assert(false, "upager: a read names page %d, which was never stored", pg)
		}
	}
	if !locked {
		p.mu.Unlock()
	}
}

// checkQueues is the magecheck build's invariant over the selection's
// queues (selection.verify) and the free pool (checkPool), run with p.mu
// held after every install, a failed fault and a settle, and on both
// sides of a sweep. A failed check drops p.mu before it panics,
// as checkStored does, so that a deferred Close still runs; from a
// fill's install it first marks the fill done, for the read may have
// completed inline on the goroutine of a FaultAhead whose caller's
// Close waits for it. Without the tag it compiles to nothing.
func (p *Pager) checkQueues(fill bool) {
	if !invariant.Enabled {
		return
	}
	err := p.sel.verify(p.pages, p.owner)
	if err == nil {
		err = p.checkPool()
	}
	if err != nil {
		if fill {
			p.fillWG.Done()
		}
		p.mu.Unlock()
		invariant.Check(err)
	}
}

// checkPool checks that the pool neither lost nor duplicated a frame: no
// frame is on the free list twice, or while a page owns it, and the free,
// the owned and the lent frames add up to frames. p.mu is held.
func (p *Pager) checkPool() error {
	on := make([]bool, p.frames)
	for _, f := range p.free {
		if on[f] {
			return fmt.Errorf("upager: frame %d is on the free list twice", f)
		}
		on[f] = true
		if pg := p.owner[f]; pg != noPage {
			return fmt.Errorf("upager: frame %d is on the free list and owned by page %d", f, pg)
		}
	}
	owned := 0
	for _, pg := range p.owner {
		if pg != noPage {
			owned++
		}
	}
	if n := len(p.free) + owned + p.lent; n != p.frames {
		return fmt.Errorf("upager: %d free + %d owned + %d lent frames make %d, not %d", len(p.free), owned, p.lent, n, p.frames)
	}
	return nil
}

// readBeforeFrame is the fault that found no free frame: it starts the
// read into a scratch page, so that the round trip overlaps reclaim,
// then waits for a frame and for the read, and copies the page in. The
// scratch is lent to the read until its hook has run, so a pager closed
// before a frame came free (frame -1, err ErrClosed) waits it out too.
// Otherwise err is the read's; on a failure the caller frees the frame.
func (p *Pager) readBeforeFrame(off int64) (int32, error) {
	io := &faultIO{off: [1]int64{off}, dst: [1][]byte{memnode.GetBuf(int(p.pageBytes))}}
	p.checkStored(io.off[:], false)
	read := make(chan error, 1)
	p.far.StartReadVInto(p.handle, io.off[:], io.dst[:], func(err error) { read <- err })
	frame, err := p.takeFrame()
	rerr := <-read
	if err == nil && rerr == nil {
		copy(p.frameData(frame), io.dst[0])
	}
	memnode.PutBuf(io.dst[0])
	if err != nil {
		return -1, err
	}
	return frame, rerr
}

// abortFault rolls a claimed page back to absent, gives back the frame
// the fault took (-1 for none), drops the fault's hold and releases
// waiters, who will retry and surface their own error.
func (p *Pager) abortFault(pg uint64, frame int32) {
	p.mu.Lock()
	if frame >= 0 {
		p.putFrame(frame)
		p.lent--
	}
	pd := &p.pages[pg]
	pd.state = pageAbsent
	pd.openLatch()
	p.checkQueues(false)
	arena := p.drop()
	p.mu.Unlock()
	releaseArena(arena)
}

// drop ends one hold on the arena. p.mu is held. On a closed pager the
// last hold takes the arena away — p.arena goes nil under the lock, so no
// later sweep can reach it — and returns it, for the caller to pass to
// releaseArena once it has unlocked; otherwise it returns nil.
func (p *Pager) drop() []byte {
	p.holds--
	if !p.closed || p.holds > 0 {
		return nil
	}
	arena := p.arena
	p.arena = nil
	return arena
}

// testHookArenaReleased, when set, sees every arena releaseArena frees.
var testHookArenaReleased func(arena []byte)

// releaseArena frees an arena drop handed out; nil is none.
func releaseArena(arena []byte) {
	if arena == nil {
		return
	}
	unmapArena(arena)
	if testHookArenaReleased != nil {
		testHookArenaReleased(arena)
	}
}

// openLatch ends a lone fault's transition for whoever waited on it.
// p.mu is held.
func (pd *page) openLatch() {
	if pd.latch != nil {
		close(pd.latch)
		pd.latch = nil
	}
}

// takeFrame is a fault's wait for a frame, once the pool was dry when it
// claimed its page: it pops a free frame, waiting on freed while none is
// free (popFrame kicks the evictor). It fails only once the pager is closed. A
// pager with no evictor runs its step here instead, until a frame is
// free, a step fails — the fault fails with it — or one frees nothing.
func (p *Pager) takeFrame() (int32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.popFrame(); f >= 0 {
		return f, nil
	}
	p.frameWaits.Add(1)
	for p.noEvictor {
		p.mu.Unlock()
		progress, err := p.evictSome()
		p.mu.Lock()
		if err != nil {
			return -1, err
		}
		if f := p.popFrame(); f >= 0 {
			return f, nil
		}
		if !progress {
			break
		}
	}
	for {
		if p.closed {
			return -1, ErrClosed
		}
		if f := p.popFrame(); f >= 0 {
			return f, nil
		}
		p.waiters++
		p.freed.Wait()
		p.waiters--
	}
}

// popFrame takes a frame from the pool and lends it to the caller, or
// returns -1 when the pool is dry: a lone fault's claim, and FaultAhead,
// which drops the rest of its batch rather than wait. A take that leaves
// the pool under its low-water mark, or finds it dry, kicks the evictor.
// p.mu is held.
func (p *Pager) popFrame() int32 {
	n := len(p.free)
	if n <= p.lowWater {
		p.kick()
	}
	if n == 0 {
		return -1
	}
	f := p.free[n-1]
	p.free = p.free[:n-1]
	p.lent++
	return f
}

// putFrame returns a frame to the pool, waking one fault that waits for
// it. The caller ends the frame's loan, or its page's ownership, itself.
// p.mu is held.
func (p *Pager) putFrame(f int32) {
	p.free = append(p.free, f)
	if p.waiters > 0 {
		p.freed.Signal()
	}
}

func (p *Pager) kick() {
	select {
	case p.kickC <- struct{}{}:
	default:
	}
}

// fill is one FaultAhead batch from its claim to install: the pages
// claimed, the frame, region offset and frame bytes of each, and the
// latch they share — the pages of a batch open together, so one channel
// serves them all. The slices are scratch that travels with the struct
// through p.fills, and so does done, the struct's install as the hook
// a started read takes; only the latch is made per batch.
type fill struct {
	p      *Pager
	pgs    []uint64
	frames []int32
	offs   []int64
	dst    [][]byte
	latch  chan struct{}
	start  int64 // monoNow at the claim of the batch's first page
	done   func(error)
}

// FaultAhead starts the faults of pgs early and together: a caller that
// already knows the pages its next Pins will touch (magecache, from the
// requests buffered on a connection) hands them over, and every page
// that is absent and can get a free frame right now is claimed. A stored
// page goes absent→faulting under the batch's one latch and is filled by
// one batched read, which is on its way to the backing when FaultAhead
// returns — started here, on the caller's goroutine; install runs
// wherever the read completes. A page never stored is zeros: its frame
// is cleared and it is resident before FaultAhead returns, and a batch
// of such pages alone starts no read. FaultAhead never waits for a read
// or a frame and promises nothing — pages that are resident or in
// transit, out of range, or left over when the free pool runs dry are
// skipped. Pin remains the only way to touch data: a Pin of a claimed
// page coalesces on the latch like on any other fault, and finds the
// page resident when the read's completion has installed it.
//
// These are demand misses issued early, not speculation: they count in
// Faults (and in FaultsAhead) and the fault-latency histogram.
func (p *Pager) FaultAhead(pgs []uint64) {
	var (
		f               *fill
		start           int64
		claimed, zeroed int
		refaults        uint64
	)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for _, pg := range pgs {
		if pg >= p.numPages || p.pages[pg].state != pageAbsent {
			continue
		}
		if claimed == p.batch {
			break // one call never takes more than the evictor's share of the arena
		}
		frame := p.popFrame() // a dry pool kicks: the pins that follow will want frames
		if frame < 0 {
			break
		}
		if claimed++; claimed == 1 {
			start = monoNow()
		}
		pd := &p.pages[pg]
		if pd.flags&flagStored == 0 {
			clear(p.frameData(frame))
			if p.land(pd, pg, frame) {
				refaults++
			}
			zeroed++
			continue
		}
		if f == nil {
			if n := len(p.fills); n > 0 {
				f, p.fills = p.fills[n-1], p.fills[:n-1]
			} else {
				f = &fill{p: p}
				f.done = f.install
			}
			f.pgs, f.frames, f.offs, f.dst = f.pgs[:0], f.frames[:0], f.offs[:0], f.dst[:0]
			f.latch = make(chan struct{})
		}
		pd.state = pageFaulting
		pd.latch = f.latch
		f.pgs = append(f.pgs, pg)
		f.frames = append(f.frames, frame)
		f.offs = append(f.offs, int64(pg)*p.pageBytes)
		f.dst = append(f.dst, p.frameData(frame))
	}
	if zeroed > 0 {
		// Counted before the pages can be pinned, as install counts its own.
		n := uint64(zeroed)
		p.faults.Add(n)
		p.faultsAhead.Add(n)
		p.zeroFills.Add(n)
		lat := monoNow() - start
		for range zeroed {
			p.faultLat.Record(lat)
		}
		p.lent -= zeroed
		p.checkQueues(false)
	}
	if f != nil {
		p.checkStored(f.offs, true)
		// Add under mu so Close (which sets closed under mu before
		// waiting) can never miss an in-flight fill.
		p.fillWG.Add(1)
	}
	p.mu.Unlock()
	if refaults > 0 {
		p.refaults.Add(refaults)
	}
	if f == nil {
		return
	}
	p.faults.Add(uint64(len(f.pgs)))
	p.faultsAhead.Add(uint64(len(f.pgs)))
	f.start = start
	// With p.mu dropped: the hook takes it, and a read refused on the spot
	// runs the hook before this returns.
	p.far.StartReadVInto(p.handle, f.offs, f.dst, f.done)
}

// install ends a batch whose read has returned err: every page
// installed resident and unpinned, or, on a failed read, aborted to
// absent for the pinners waiting on the latch to retry and surface
// their own error. A page lands untouched: the Pin that follows is the
// use it was read for, as the faulting Pin is of a lone fault, and
// records no second one.
//
// Between the claim and the end of the read the frames belong to the
// wire: no page names them, so no Pin can see them, and they go back to
// the free pool on a failed read only now, when the backing has
// returned and writes them no more.
//
// install is the hook of a started read, so it runs on whichever
// goroutine completed that: it takes p.mu and nothing else, never
// blocks, and sends nothing to the backing.
func (f *fill) install(err error) {
	p := f.p
	lat := monoNow() - f.start
	refaults := uint64(0)
	p.mu.Lock()
	for i, pg := range f.pgs {
		pd := &p.pages[pg]
		pd.latch = nil
		p.lent--
		if err != nil {
			pd.state = pageAbsent
			p.putFrame(f.frames[i])
			continue
		}
		if p.land(pd, pg, f.frames[i]) {
			refaults++
		}
		// Before the latch opens, so that a pinner that saw the page
		// also sees its fault in the histogram.
		p.faultLat.Record(lat)
	}
	close(f.latch)
	p.checkQueues(true) // a fill: Close waits for its Done
	p.fills = append(p.fills, f)
	p.mu.Unlock()
	if refaults > 0 {
		p.refaults.Add(refaults)
	}
	p.fillWG.Done()
}

// land makes pd, page pg, resident in frame as a FaultAhead page lands:
// clean, unpinned and untouched, its first Pin still to come. It reports
// whether the page refaulted. p.mu is held.
func (p *Pager) land(pd *page, pg uint64, frame int32) (refault bool) {
	pd.state, pd.frame, pd.dirty, pd.pins = pageResident, frame, false, 0
	p.owner[frame] = pg
	return p.sel.admit(pd, frame, true)
}

// evictLoop is the write-behind evictor: on every kick it reclaims
// frames until the free pool is back above the low-water mark, batching
// dirty victims into WRITEV frames.
func (p *Pager) evictLoop() {
	defer close(p.doneC)
	for {
		select {
		case <-p.stopC:
			return
		case <-p.kickC:
		}
		for p.short() {
			progress, err := p.evictSome()
			if err != nil || !progress {
				// Writeback failure or nothing evictable (all pinned or
				// in transit): wait for the next kick rather than spin.
				break
			}
			select {
			case <-p.stopC:
				return
			default:
			}
		}
	}
}

// short reports whether the pool is under its low-water mark.
func (p *Pager) short() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free) < p.lowWater
}

// wbatch is one writeback batch, the evictor's or Flush's: its pages, the
// region offset and frame bytes of each, and the latch they share. From
// add to settle its frames belong to the wire: their pages are evicting,
// so no pinner touches them and no frame goes back to the free pool.
type wbatch struct {
	p     *Pager
	evict bool // the evictor's: a page written back leaves its frame
	pgs   []uint64
	offs  []int64
	bufs  [][]byte
	latch chan struct{}
}

// add moves page pg, resident in frame, onto the batch — the one place a
// page goes evicting, and stored, for far memory may hold it from now on
// whether the write lands or not. The first page makes the batch's latch
// and takes its hold on the arena, which settle drops. p.mu is held.
func (b *wbatch) add(pg uint64, frame int32) {
	p := b.p
	if b.latch == nil {
		b.latch = make(chan struct{})
		p.holds++
	}
	pd := &p.pages[pg]
	pd.state = pageEvicting
	pd.flags |= flagStored
	pd.latch = b.latch
	b.pgs = append(b.pgs, pg)
	b.offs = append(b.offs, int64(pg)*p.pageBytes)
	b.bufs = append(b.bufs, p.frameData(frame))
}

// send writes the batch as one WRITEV with no lock held. The arena bytes
// go out zero-copy: evicting keeps writers off the frames.
func (b *wbatch) send() error { return b.p.far.WriteV(b.p.handle, b.offs, b.bufs) }

// settle ends a batch whose WRITEV returned err, and empties it for its
// next add. A page the evictor sent leaves its frame for the free pool,
// one Flush sent stays resident and clean; a failed write leaves every
// page resident and dirty — a victim back in its frame and queued where
// it was taken from — for a later sweep or Flush to retry. settle takes
// p.mu and nothing else, never blocks, and sends nothing to the backing:
// it could be the hook of a started write.
func (b *wbatch) settle(err error) {
	p := b.p
	p.mu.Lock()
	for _, pg := range b.pgs {
		pd := &p.pages[pg]
		pd.latch = nil
		switch {
		case err != nil && b.evict:
			pd.state = pageResident
			p.owner[pd.frame] = pg
			p.lent--
			p.sel.requeue(pd, pd.frame)
		case err != nil:
			pd.state = pageResident
		case b.evict:
			pd.state, pd.dirty = pageAbsent, false
			p.putFrame(pd.frame)
			p.lent--
		default:
			pd.state, pd.dirty = pageResident, false
		}
	}
	close(b.latch)
	p.checkQueues(false)
	arena := p.drop()
	p.mu.Unlock()
	releaseArena(arena)
	n := uint64(len(b.pgs))
	b.pgs, b.offs, b.bufs, b.latch = b.pgs[:0], b.offs[:0], b.bufs[:0], nil
	if err != nil {
		p.wbErrors.Add(1)
		return
	}
	if b.evict {
		p.evictions.Add(n)
	}
	p.wbBatches.Add(1)
	p.wbPages.Add(n)
}

// sweep is the evictor's first stage. Under p.mu it takes victims from the
// selection's queues: a clean one goes back to the free pool on the spot,
// a dirty one onto the evictor's batch, which sweep returns. It ends with
// a full batch, or after looking at two heads per frame, which is enough
// to have met every evictable page. progress says whether it freed a
// frame or spared a head, which is one look nearer to being a victim.
func (p *Pager) sweep() (b *wbatch, progress bool) {
	b = &p.evict
	p.mu.Lock()
	sel := p.sel
	limit, spared := sel.examined+2*uint64(p.frames), sel.spared
	for len(b.pgs) < p.batch {
		f, ok := sel.next(p.pages, p.owner, limit)
		if !ok {
			break
		}
		pg := p.owner[f]
		pd := &p.pages[pg]
		p.owner[f] = noPage
		if pd.dirty {
			b.add(pg, f)
			p.lent++ // the batch's, until settle
			continue
		}
		pd.state = pageAbsent
		p.putFrame(f)
		p.cleanDrops.Add(1)
		p.evictions.Add(1)
		progress = true
	}
	progress = progress || sel.spared != spared
	p.checkQueues(false)
	p.mu.Unlock()
	return b, progress
}

// evictSome is one step of the evictor: a sweep, then the send and settle
// of its batch when it holds a dirty page. It returns whether the step
// made progress toward freeing frames.
func (p *Pager) evictSome() (bool, error) {
	b, progress := p.sweep()
	if len(b.pgs) == 0 {
		return progress, nil
	}
	err := b.send()
	b.settle(err)
	if err != nil {
		return progress, fmt.Errorf("upager: write-behind batch: %w", err)
	}
	return true, nil
}

// Flush writes back every dirty unpinned page, leaving it resident and
// clean. Its walk of the page table fills a batch as the sweep does, and
// each batch resumes the walk where the last one stopped; a walk that
// sent anything is followed by another, so Flush returns after a walk that
// found nothing to send: pages pinned for write while Flush runs, behind
// its cursor or ahead of it, are picked up within the same call, and a
// table with a few dirty pages among many costs two walks, not one per
// batch. Pages still write-pinned in that last walk are reported as an
// error (the caller owns quiescing writers before a checkpoint). Once a
// closed pager has released its arena there is nothing left to write
// from, and Flush returns ErrClosed.
func (p *Pager) Flush() error {
	b := &wbatch{p: p}
	pg, sent, pinnedDirty := 0, false, 0 // the walk's cursor, and what it has met
	for {
		p.mu.Lock()
		if p.arena == nil {
			p.mu.Unlock()
			return ErrClosed
		}
		for ; pg < len(p.pages) && len(b.pgs) < p.batch; pg++ {
			pd := &p.pages[pg]
			if pd.state != pageResident || !pd.dirty {
				continue
			}
			if pd.pins > 0 {
				pinnedDirty++
				continue
			}
			b.add(uint64(pg), pd.frame)
		}
		p.mu.Unlock()
		if len(b.pgs) > 0 {
			sent = true
			err := b.send()
			b.settle(err)
			if err != nil {
				return fmt.Errorf("upager: flush batch: %w", err)
			}
			continue
		}
		if !sent { // a whole walk that found nothing to send
			if pinnedDirty > 0 {
				return fmt.Errorf("upager: flush left %d dirty pages pinned by writers", pinnedDirty)
			}
			return nil
		}
		pg, sent, pinnedDirty = 0, false, 0
	}
}

// Close flushes dirty pages, stops the evictor, and marks the pager
// unusable. In-flight fill-ahead batches are drained first. The arena is
// released when Close returns, or, if a frame is still pinned then, by
// the Unpin that drops the last pin. The backing store is not closed;
// the caller owns it. A second Close does nothing.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.holds++ // Close's own, while it drains
	p.freed.Broadcast()
	p.mu.Unlock()
	p.fillWG.Wait()
	err := p.Flush()
	close(p.stopC)
	<-p.doneC
	p.mu.Lock()
	arena := p.drop()
	p.mu.Unlock()
	releaseArena(arena)
	return err
}

// Stats is a point-in-time snapshot of the pager's balance counters.
type Stats struct {
	// Faults counts major faults: pages brought in on the demand path,
	// whether by the Pin that needed them or early through FaultAhead,
	// and whether read or zero-filled.
	Faults uint64
	// FaultsAhead counts the faults among Faults that FaultAhead started,
	// in batches; Faults - FaultsAhead are the demand faults a Pin had to
	// issue alone and wait out.
	FaultsAhead uint64
	// ZeroFills counts the faults among Faults served without a read: the
	// page had never been stored, so far memory held the zeros Register
	// returned, and the fault cleared a frame instead. It is the DES's
	// FaultFetchZero; Faults - ZeroFills are the pages read.
	ZeroFills uint64
	// FrameWaits counts the faults that found the free pool empty and
	// blocked until the evictor freed a frame: reclaim running behind the
	// fault rate. It is the real pager's core.sync_evictions — the DES
	// reclaims on the faulting thread at that point, this pager waits for
	// its evictor — and, with FreeFrames, the balance signal: a pool that
	// runs dry shows here even when no sample of FreeFrames catches it.
	FrameWaits uint64
	// Hits counts pins served by an already-resident page.
	Hits uint64
	// Coalesced counts pins that waited on another pin's in-flight
	// fault or on an eviction instead of issuing their own read.
	Coalesced uint64
	// Evictions counts frames reclaimed (clean drops + written back).
	Evictions uint64
	// Refaults counts the faults among Faults on a page that had been
	// evicted, unpromoted, less than a main queue's worth of such
	// evictions before (its ghost was live): evicted too early. It is
	// over-eviction as a number: a working set that fits reads 0, a
	// reclaim that runs ahead of need, or a small queue shorter than the
	// stream's reuse distance, reads high.
	Refaults uint64
	// CleanDrops counts evictions that needed no writeback.
	CleanDrops uint64
	// WritebackBatches/Pages count write-behind WRITEV frames and the
	// pages they carried; Pages/Batches is the achieved batching factor.
	WritebackBatches uint64
	WritebackPages   uint64
	WritebackErrors  uint64
	// FreeFrames is the current free pool depth.
	FreeFrames int
}

// Stats returns the current counter snapshot.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	return Stats{
		Faults:           p.faults.Load(),
		FaultsAhead:      p.faultsAhead.Load(),
		ZeroFills:        p.zeroFills.Load(),
		FrameWaits:       p.frameWaits.Load(),
		Hits:             p.hits.Load(),
		Coalesced:        p.coalesced.Load(),
		Evictions:        p.evictions.Load(),
		Refaults:         p.refaults.Load(),
		CleanDrops:       p.cleanDrops.Load(),
		WritebackBatches: p.wbBatches.Load(),
		WritebackPages:   p.wbPages.Load(),
		WritebackErrors:  p.wbErrors.Load(),
		FreeFrames:       free,
	}
}

// FaultLatency returns a snapshot of the major-fault service-time
// histogram.
func (p *Pager) FaultLatency() *stats.Histogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faultLat.Clone()
}
