// Package upager is a user-level pager: it manages a small local page
// arena over a far-memory backing store, giving real host services the
// same fault/evict mechanics the DES models — demand fault-in over the
// async futures API, frame reclaim that picks its victims by how often
// a page was pinned (S3-FIFO, see selection.go), and a dedicated
// write-behind evictor that batches dirty victims into WRITEV frames
// (the paper's P2 cross-batch pipeline, in userspace).
//
// The pager is the userspace mirror of the kernel data path the paper
// instruments: Pin is the page fault, the evictor is the reclaim
// thread, and the Stats counters expose the fault/eviction balance the
// paper's controller steers by. Concurrent faults on one page coalesce
// on a per-page latch, so a hot miss costs one wire read however many
// goroutines hit it; a caller that knows which pages it is about to pin
// can start their faults together with FaultAhead, one READV for the
// lot (P2 again, on the fault side).
package upager

import (
	"errors"
	"fmt"
	"sync"        //magevet:ok real-host pager over a live network client: per-page latches and one metadata mutex
	"sync/atomic" //magevet:ok lock-free fault/eviction balance counters read by monitoring
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
)

// Backing is the far-memory store a pager swaps against. Both
// memnode.Client and memcluster.Cluster satisfy it.
//
// The method set is frozen by bench/, which a change that claims a gain
// may not edit: its shim embeds the interface and forwards Read, ReadV
// and WriteV by name, and its self-test passes New a five-method fake.
// ReadV is here for those two alone — the pager fills batches through
// IntoBacking, and calls ReadV only on a backing that is not one.
type Backing interface {
	Register(size int64) (uint64, error)
	Read(handle uint64, offset, length int64) ([]byte, error)
	Write(handle uint64, offset int64, data []byte) error
	ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error)
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
}

// IntoBacking is a Backing whose batched read lands in buffers the
// caller names: page i, len(dst[i]) bytes at offsets[i], into dst[i].
// The pager passes the frames it has claimed for the batch, so a page
// crosses user space once, from the transport's buffer into its frame.
// The frames are lent for the duration of the call: the backing may
// write them (and on failure leave anything in them) until it returns,
// and not after. memnode.Client and memcluster.Cluster satisfy it.
type IntoBacking interface {
	Backing
	ReadVInto(handle uint64, offsets []int64, dst [][]byte) error
}

// AsyncBacking is a Backing that can issue one-sided reads returning a
// future, letting the demand read overlap frame reclaim.
// memnode.Client satisfies it; the pager falls back to the synchronous
// Read when the backing does not.
type AsyncBacking interface {
	Backing
	ReadAsync(handle uint64, offset, length int64) *memnode.Pending
}

// startBacking is a backing that can start a batched read from the
// caller's goroutine and report its end through a hook: ReadVInto's
// contract, with the frames lent until done has been called — once, on
// whichever goroutine ends the read, holding no lock of the backing's.
// memnode.Client is the one; with it a fill-ahead starts no goroutine.
// It is not exported: bench's shim hides the method, and a backing that
// has none gets its batched reads run on a goroutine each, as before
// (see New).
type startBacking interface {
	StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error))
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
	state     int8
	dirty     bool
	freq      uint8 // pins since it was queued, saturating at maxFreq
	untouched bool  // installed by FaultAhead, its first Pin still to come
	pins      int32
	frame     int32
	ghost     uint32 // selection's stamp of its eviction from small; 0 is none
	latch     chan struct{}
}

// Options sizes a Pager. The zero value of every field selects a
// default.
type Options struct {
	// PageBytes is the page size (default 4096).
	PageBytes int64
	// EvictBatch caps dirty pages per write-behind WRITEV (default 32,
	// capped at memnode.MaxBatchPages).
	EvictBatch int
	// LowWater is the free-frame target: the evictor runs until at
	// least this many frames are free (default max(EvictBatch,
	// frames/8), at least 1).
	LowWater int
	// This field does nothing: the pager reads only the pages it is
	// asked for. It stays because callers that cannot be edited set it.
	NoPrefetch bool
}

// Pager pages a numPages*PageBytes region through a frames-sized local
// arena.
type Pager struct {
	backing    Backing
	async      AsyncBacking // nil when backing has no futures API
	startReadV func(handle uint64, offsets []int64, dst [][]byte, done func(error))
	handle     uint64
	pageBytes  int64
	numPages   uint64
	frames     int
	batch      int
	lowWater   int

	arena []byte

	mu     sync.Mutex // guards pages, owner, sel, closed
	pages  []page
	owner  []uint64   // frame -> resident page, noPage when free or on the wire
	sel    *selection // the resident frames, queued for eviction
	closed bool

	freeC chan int32    // free frame pool (buffered to frames: sends never block)
	kickC chan struct{} // nudges the evictor (buffered 1)
	stopC chan struct{}
	doneC chan struct{} // evictor exited

	fillWG   sync.WaitGroup // fills claimed and not yet installed; Close drains them
	fillPool sync.Pool      // *fill scratch between batches
	evict    evictScratch

	// Fault/eviction balance counters (the paper's steering signals).
	faults      atomic.Uint64
	faultsAhead atomic.Uint64
	frameWaits  atomic.Uint64
	hits        atomic.Uint64
	coalesced   atomic.Uint64
	evictions   atomic.Uint64
	refaults    atomic.Uint64
	cleanDrops  atomic.Uint64
	wbBatches   atomic.Uint64
	wbPages     atomic.Uint64
	wbErrors    atomic.Uint64

	faultLat *stats.ConcurrentHistogram
}

// New registers a numPages-page region on backing and returns a pager
// holding frames local frames over it. frames bounds local memory: the
// remote:local ratio of an experiment is numPages/frames.
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
	// The evictor must never be asked to reclaim most of the arena:
	// batch and low-water both cap at half the frames so a fresh fault
	// cannot be evicted just to satisfy the free-pool target.
	half := frames / 2
	if half < 1 {
		half = 1
	}
	batch := opts.EvictBatch
	if batch <= 0 {
		batch = 32
	}
	if batch > memnode.MaxBatchPages {
		batch = memnode.MaxBatchPages
	}
	if batch > half {
		batch = half
	}
	low := opts.LowWater
	if low <= 0 {
		low = frames / 8
		if low > batch {
			low = batch
		}
	}
	if low > half {
		low = half
	}
	if low < 1 {
		low = 1
	}
	handle, err := backing.Register(int64(numPages) * pb)
	if err != nil {
		return nil, fmt.Errorf("upager: register backing region: %w", err)
	}
	p := &Pager{
		backing:   backing,
		handle:    handle,
		pageBytes: pb,
		numPages:  numPages,
		frames:    frames,
		batch:     batch,
		lowWater:  low,
		arena:     make([]byte, int64(frames)*pb),
		pages:     make([]page, numPages),
		owner:     make([]uint64, frames),
		sel:       newSelection(frames),
		freeC:     make(chan int32, frames),
		kickC:     make(chan struct{}, 1),
		stopC:     make(chan struct{}),
		doneC:     make(chan struct{}),
		faultLat:  stats.NewConcurrentHistogram(),
	}
	p.async, _ = backing.(AsyncBacking)
	// A batched read is started and ends in a hook. The backing that can
	// do that starts it itself; for any other, starting it is a goroutine
	// that runs its ReadVInto — or its ReadV, and a copy.
	if st, ok := backing.(startBacking); ok {
		p.startReadV = st.StartReadVInto
	} else {
		readVInto := p.readVCopy
		if into, ok := backing.(IntoBacking); ok {
			readVInto = into.ReadVInto
		}
		p.startReadV = func(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
			go func() { done(readVInto(handle, offsets, dst)) }() //magevet:ok real-host pager: a backing that cannot start a read has it run beside the caller's own work
		}
	}
	for f := 0; f < frames; f++ {
		p.owner[f] = noPage
		p.freeC <- int32(f)
	}
	go p.evictLoop() //magevet:ok real-host pager: the dedicated write-behind evictor thread
	return p, nil
}

// Frame is a pinned view of one resident page. Data aliases the arena;
// it is valid until Unpin, after which the frame may be evicted and
// reused. Write access requires having pinned with write=true, which
// marks the page dirty for write-behind.
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
	idle := pd.pins == 0
	p.mu.Unlock()
	// A fault may be blocked on a free frame with every frame pinned;
	// this unpin could be the one that makes a victim available.
	if idle && len(p.freeC) < p.lowWater {
		p.kick()
	}
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
			pd.pins++
			if write {
				pd.dirty = true
			}
			pd.touch()
			frame := pd.frame
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
			p.mu.Unlock()
			return p.faultIn(pg, write)
		}
	}
}

func (p *Pager) frameView(pg uint64, frame int32) Frame {
	return Frame{Data: p.frameData(frame), p: p, pg: pg}
}

func (p *Pager) frameData(frame int32) []byte {
	off := int64(frame) * p.pageBytes
	return p.arena[off : off+p.pageBytes : off+p.pageBytes]
}

// faultIn runs the major-fault path for a page already claimed as
// pageFaulting by the caller: issue the demand read, reclaim a frame
// while it flies, install.
func (p *Pager) faultIn(pg uint64, write bool) (Frame, error) {
	start := time.Now() //magevet:ok real-host pager: fault service time is a reported metric
	p.faults.Add(1)
	off := int64(pg) * p.pageBytes

	// Issue the read before blocking on a frame so the wire round-trip
	// overlaps reclaim.
	var pending *memnode.Pending
	if p.async != nil {
		pending = p.async.ReadAsync(p.handle, off, p.pageBytes)
	}

	frame, err := p.takeFrame()
	if err != nil {
		if pending != nil {
			if body, werr := pending.Wait(); werr == nil {
				memnode.PutBuf(body)
			}
		}
		p.abortFault(pg)
		return Frame{}, err
	}

	var body []byte
	if pending != nil {
		body, err = pending.Wait()
	} else {
		body, err = p.backing.Read(p.handle, off, p.pageBytes)
	}
	if err != nil {
		p.putFrame(frame)
		p.abortFault(pg)
		return Frame{}, fmt.Errorf("upager: fault-in page %d: %w", pg, err)
	}
	copy(p.frameData(frame), body)
	memnode.PutBuf(body)

	p.mu.Lock()
	pd := &p.pages[pg]
	pd.state = pageResident
	pd.frame = frame
	pd.dirty = write
	pd.pins = 1
	p.owner[frame] = pg
	refault := p.sel.admit(pd, frame, false)
	pd.openLatch()
	p.sel.check(p.pages, p.owner)
	p.mu.Unlock()
	if refault {
		p.refaults.Add(1)
	}

	p.faultLat.Record(time.Since(start).Nanoseconds()) //magevet:ok real-host pager: fault service time is a reported metric
	return p.frameView(pg, frame), nil
}

// abortFault rolls a claimed page back to absent and releases waiters,
// who will retry and surface their own error.
func (p *Pager) abortFault(pg uint64) {
	p.mu.Lock()
	pd := &p.pages[pg]
	pd.state = pageAbsent
	pd.openLatch()
	p.mu.Unlock()
}

// openLatch ends a lone fault's transition for whoever waited on it.
// p.mu is held.
func (pd *page) openLatch() {
	if pd.latch != nil {
		close(pd.latch)
		pd.latch = nil
	}
}

// takeFrame pops a free frame, kicking the evictor and blocking while
// none are free. It fails only once the pager is closing.
func (p *Pager) takeFrame() (int32, error) {
	select {
	case f := <-p.freeC:
		p.maybeKick()
		return f, nil
	default:
	}
	p.frameWaits.Add(1)
	p.kick()
	select {
	case f := <-p.freeC:
		p.maybeKick()
		return f, nil
	case <-p.stopC:
		return -1, ErrClosed
	}
}

// putFrame returns a frame to the free pool. freeC is buffered to
// frames, so the send never blocks, under p.mu or not.
func (p *Pager) putFrame(f int32) { p.freeC <- f }

// tryTakeFrame is the non-blocking variant FaultAhead uses: under frame
// pressure the rest of its batch is dropped rather than queued.
func (p *Pager) tryTakeFrame() (int32, bool) {
	select {
	case f := <-p.freeC:
		p.maybeKick()
		return f, true
	default:
		return -1, false
	}
}

func (p *Pager) kick() {
	select {
	case p.kickC <- struct{}{}:
	default:
	}
}

func (p *Pager) maybeKick() {
	if len(p.freeC) < p.lowWater {
		p.kick()
	}
}

// fill is one FaultAhead batch from its claim to install: the pages
// claimed, the frame, region offset and frame bytes of each, and the
// latch they share — the pages of a batch open together, so one channel
// serves them all. The slices are scratch that travels with the struct
// through fillPool, and so does done, the struct's install as the hook
// a started read takes; only the latch is made per batch.
type fill struct {
	p      *Pager
	pgs    []uint64
	frames []int32
	offs   []int64
	dst    [][]byte
	latch  chan struct{}
	start  time.Time
	done   func(error)
}

// FaultAhead starts the faults of pgs early and together: a caller that
// already knows the pages its next Pins will touch (magecache, from the
// requests buffered on a connection) hands them over, and every page
// that is absent and can get a free frame right now is claimed
// absent→faulting under one latch and filled by one batched read, which
// is on its way to the backing when FaultAhead returns — started here,
// on the caller's goroutine; install runs wherever the read completes.
// It never waits for a read or a frame and promises nothing — pages that
// are resident or in transit, out of range, or left over when the free
// pool runs dry are skipped. Pin remains the only way to touch data: a
// Pin of a claimed page coalesces on the latch like on any other fault,
// and finds the page resident when the read's completion has installed
// it.
//
// These are demand misses issued early, not speculation: they count in
// Faults (and in FaultsAhead) and the fault-latency histogram.
func (p *Pager) FaultAhead(pgs []uint64) {
	var f *fill
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	for _, pg := range pgs {
		if pg >= p.numPages || p.pages[pg].state != pageAbsent {
			continue
		}
		if f != nil && len(f.pgs) == p.batch {
			break // one fill never takes more than the evictor's share of the arena
		}
		frame, ok := p.tryTakeFrame()
		if !ok {
			p.kick() // the pins that follow will want frames
			break
		}
		if f == nil {
			if f, _ = p.fillPool.Get().(*fill); f == nil {
				f = &fill{p: p}
				f.done = f.install
			}
			f.pgs, f.frames, f.offs, f.dst = f.pgs[:0], f.frames[:0], f.offs[:0], f.dst[:0]
			f.latch = make(chan struct{})
		}
		pd := &p.pages[pg]
		pd.state = pageFaulting
		pd.latch = f.latch
		f.pgs = append(f.pgs, pg)
		f.frames = append(f.frames, frame)
		f.offs = append(f.offs, int64(pg)*p.pageBytes)
		f.dst = append(f.dst, p.frameData(frame))
	}
	if f != nil {
		// Add under mu so Close (which sets closed under mu before
		// waiting) can never miss an in-flight fill.
		p.fillWG.Add(1)
	}
	p.mu.Unlock()
	if f == nil {
		return
	}
	p.faults.Add(uint64(len(f.pgs)))
	p.faultsAhead.Add(uint64(len(f.pgs)))
	f.start = time.Now() //magevet:ok real-host pager: fault service time is a reported metric
	// With p.mu dropped: the hook takes it, and a read refused on the spot
	// runs the hook before this returns.
	p.startReadV(p.handle, f.offs, f.dst, f.done)
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
	if err == nil {
		// Before the latch opens, so that a pinner that saw the page
		// also sees its fault in the histogram.
		lat := time.Since(f.start).Nanoseconds() //magevet:ok real-host pager: fault service time is a reported metric
		for range f.pgs {
			p.faultLat.Record(lat)
		}
	}
	refaults := uint64(0)
	p.mu.Lock()
	for i, pg := range f.pgs {
		pd := &p.pages[pg]
		pd.latch = nil
		if err != nil {
			pd.state = pageAbsent
			p.putFrame(f.frames[i])
			continue
		}
		pd.state = pageResident
		pd.frame = f.frames[i]
		pd.dirty = false
		pd.pins = 0
		p.owner[f.frames[i]] = pg
		if p.sel.admit(pd, f.frames[i], true) {
			refaults++
		}
	}
	close(f.latch)
	p.sel.check(p.pages, p.owner)
	p.mu.Unlock()
	if refaults > 0 {
		p.refaults.Add(refaults)
	}
	p.fillWG.Done()
	p.fillPool.Put(f)
}

// readVCopy is readVInto over a backing that is not an IntoBacking: its
// ReadV, and a copy.
func (p *Pager) readVCopy(handle uint64, offsets []int64, dst [][]byte) error {
	bodies, err := p.backing.ReadV(handle, offsets, p.pageBytes)
	if err != nil {
		return err
	}
	if len(bodies) != len(dst) {
		return fmt.Errorf("upager: readv returned %d of %d pages", len(bodies), len(dst))
	}
	for i, body := range bodies {
		copy(dst[i], body)
	}
	return nil
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
		for len(p.freeC) < p.lowWater {
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

// evictScratch is the evictor's batch between sweeps: evictSome runs on
// the evictor goroutine alone, so one set of lists serves every sweep.
type evictScratch struct {
	victims []uint64
	offs    []int64
	bufs    [][]byte
}

// evictSome runs one sweep of the selection's queues. Clean victims are
// freed on the spot; dirty victims transition to pageEvicting (blocking
// new pinners, so the in-flight WRITEV can safely alias the arena) and
// go out as one batch under one latch — they come back together. A
// sweep ends with a full batch, or after looking at two heads per frame,
// which is enough to have met every evictable page. Returns whether the
// sweep made progress toward freeing frames.
func (p *Pager) evictSome() (bool, error) {
	ev := &p.evict
	victims, offs, bufs := ev.victims[:0], ev.offs[:0], ev.bufs[:0]
	var latch chan struct{}
	progress := false
	p.mu.Lock()
	sel := p.sel
	limit, spared := sel.examined+2*uint64(p.frames), sel.spared
	for len(victims) < p.batch {
		f, ok := sel.next(p.pages, p.owner, limit)
		if !ok {
			break
		}
		pg := p.owner[f]
		pd := &p.pages[pg]
		p.owner[f] = noPage
		if !pd.dirty {
			pd.state = pageAbsent
			p.putFrame(f)
			p.cleanDrops.Add(1)
			p.evictions.Add(1)
			progress = true
			continue
		}
		if latch == nil {
			latch = make(chan struct{})
		}
		pd.state = pageEvicting
		pd.latch = latch
		victims = append(victims, pg)
		offs = append(offs, int64(pg)*p.pageBytes)
		bufs = append(bufs, p.frameData(f))
	}
	// A head spared now is one look nearer to being a victim.
	progress = progress || sel.spared != spared
	sel.check(p.pages, p.owner)
	p.mu.Unlock()
	ev.victims, ev.offs, ev.bufs = victims, offs, bufs
	if len(victims) == 0 {
		return progress, nil
	}

	if err := p.writeBack(victims, offs, bufs, latch, true); err != nil {
		return progress, fmt.Errorf("upager: write-behind batch: %w", err)
	}
	return true, nil
}

// Flush writes back every dirty unpinned page, leaving it resident and
// clean. Pages pinned for write while Flush runs are picked up by a
// later batch within the same call; pages still write-pinned when the
// sweep completes are reported as an error (the caller owns quiescing
// writers before a checkpoint).
func (p *Pager) Flush() error {
	var (
		victims []uint64
		offs    []int64
		bufs    [][]byte
	)
	for {
		victims, offs, bufs = victims[:0], offs[:0], bufs[:0]
		var latch chan struct{}
		pinnedDirty := 0
		p.mu.Lock()
		for pg := range p.pages {
			pd := &p.pages[pg]
			if pd.state != pageResident || !pd.dirty {
				continue
			}
			if pd.pins > 0 {
				pinnedDirty++
				continue
			}
			if len(victims) == p.batch {
				continue
			}
			if latch == nil {
				latch = make(chan struct{})
			}
			pd.state = pageEvicting // block writers while the batch is on the wire
			pd.latch = latch
			victims = append(victims, uint64(pg))
			offs = append(offs, int64(pg)*p.pageBytes)
			bufs = append(bufs, p.frameData(pd.frame))
		}
		p.mu.Unlock()
		if len(victims) == 0 {
			if pinnedDirty > 0 {
				return fmt.Errorf("upager: flush left %d dirty pages pinned by writers", pinnedDirty)
			}
			return nil
		}
		if err := p.writeBack(victims, offs, bufs, latch, false); err != nil {
			return fmt.Errorf("upager: flush batch: %w", err)
		}
	}
}

// writeBack sends a batch the caller has moved to pageEvicting under
// latch — its pages, their region offsets and frame bytes — as one
// WRITEV, and settles it. The write runs with no lock held:
// pageEvicting keeps writers off the frames, and the arena bytes go out
// zero-copy. A page the evictor sent leaves its frame for the free
// pool; one Flush sent stays resident, clean. A failed write leaves
// every page resident and dirty — a victim back in its frame and queued
// where it was taken from — for a later sweep or Flush to retry.
func (p *Pager) writeBack(victims []uint64, offs []int64, bufs [][]byte, latch chan struct{}, evict bool) error {
	err := p.backing.WriteV(p.handle, offs, bufs)
	p.mu.Lock()
	for _, pg := range victims {
		pd := &p.pages[pg]
		pd.latch = nil
		switch {
		case err != nil && evict:
			pd.state = pageResident
			p.owner[pd.frame] = pg
			p.sel.requeue(pd, pd.frame)
		case err != nil:
			pd.state = pageResident
		case evict:
			pd.state, pd.dirty = pageAbsent, false
			p.putFrame(pd.frame)
		default:
			pd.state, pd.dirty = pageResident, false
		}
	}
	close(latch)
	p.sel.check(p.pages, p.owner)
	p.mu.Unlock()
	if err != nil {
		p.wbErrors.Add(1)
		return err
	}
	n := uint64(len(victims))
	if evict {
		p.evictions.Add(n)
	}
	p.wbBatches.Add(1)
	p.wbPages.Add(n)
	return nil
}

// Close flushes dirty pages, stops the evictor, and marks the pager
// unusable. In-flight fill-ahead batches are drained first. The backing
// store is not closed; the caller owns it.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.fillWG.Wait()
	err := p.Flush()
	close(p.stopC)
	<-p.doneC
	return err
}

// Stats is a point-in-time snapshot of the pager's balance counters.
type Stats struct {
	// Faults counts major faults: pages read on the demand path, whether
	// by the Pin that needed them or early through FaultAhead.
	Faults uint64
	// FaultsAhead counts the faults among Faults that FaultAhead started,
	// in batches; Faults - FaultsAhead are the demand faults a Pin had to
	// issue alone and wait out.
	FaultsAhead uint64
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
	return Stats{
		Faults:           p.faults.Load(),
		FaultsAhead:      p.faultsAhead.Load(),
		FrameWaits:       p.frameWaits.Load(),
		Hits:             p.hits.Load(),
		Coalesced:        p.coalesced.Load(),
		Evictions:        p.evictions.Load(),
		Refaults:         p.refaults.Load(),
		CleanDrops:       p.cleanDrops.Load(),
		WritebackBatches: p.wbBatches.Load(),
		WritebackPages:   p.wbPages.Load(),
		WritebackErrors:  p.wbErrors.Load(),
		FreeFrames:       len(p.freeC),
	}
}

// FaultLatency returns a snapshot of the major-fault service-time
// histogram.
func (p *Pager) FaultLatency() *stats.Histogram { return p.faultLat.Snapshot() }
