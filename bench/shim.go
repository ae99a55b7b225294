package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/memnode"
	"mage/internal/stats"
	"mage/internal/trace"
	"mage/internal/upager"
)

// Tracing from outside the layers: the harness records a span around
// each call it makes into a layer (a pin, a KV window) and, through a
// Backing shim between upager and its store, around each call upager
// makes into the layer below it. Spans inside the programs are a later
// change (ROADMAP's metrics spine).

const (
	// Every recorded span feeds its histogram, but only one request in
	// sampleEvery keeps its spans for the trace file: a traced run
	// makes hundreds of thousands of them.
	sampleEvery = 8
	maxSpans    = 1 << 18
)

// sampled picks one request in sampleEvery by a hash of its root span's
// id: ids are handed out in request order, so id%sampleEvery would
// follow whatever rhythm parents and children alternate in.
func sampled(root uint64) bool {
	return (root*0x9E3779B97F4A7C15)>>32%sampleEvery == 0
}

// span is one timed call. Times are nanoseconds since the log's epoch.
type span struct {
	name       string
	tid        int
	start, end int64
	id, parent uint64 // parent 0: a root (a pin, a KV window, the evictor's WRITEV)
	pages      int
}

// spanLog collects spans in memory and writes them out when the run
// ends. A nil *spanLog records nothing, so untraced runs pay nothing.
type spanLog struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []span
	dropped  uint64
	hists    map[string]*stats.Histogram
	pages    map[string]uint64
	counters []trace.Event
}

func newSpanLog() *spanLog {
	return &spanLog{
		epoch: time.Now(),
		hists: make(map[string]*stats.Histogram),
		pages: make(map[string]uint64),
	}
}

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, tid int, start, end time.Time, parent uint64, pages int) uint64 {
	if l == nil {
		return 0
	}
	return l.addID(l.newID(), name, tid, start, end, parent, pages)
}

// addID is add for a span whose id was handed to its children before it
// finished (a pin learns its id first, so the shim can name its parent).
func (l *spanLog) addID(id uint64, name string, tid int, start, end time.Time, parent uint64, pages int) uint64 {
	if l == nil {
		return 0
	}
	s := span{name: name, tid: tid, id: id, parent: parent, pages: pages,
		start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds()}
	root := parent
	if root == 0 {
		root = id
	}
	l.mu.Lock()
	h := l.hists[name]
	if h == nil {
		h = stats.NewHistogram()
		l.hists[name] = h
	}
	h.Record(s.end - s.start)
	l.pages[name] += uint64(pages)
	switch {
	case !sampled(root):
	case len(l.spans) >= maxSpans:
		l.dropped++
	default:
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
	return id
}

// counter records counter values at a window boundary, so the trace
// shows counts at the same instants the metrics were computed from.
func (l *spanLog) counter(name string, values map[string]any) {
	if l == nil {
		return
	}
	ts := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.counters = append(l.counters, trace.Event{Name: name, Phase: trace.PhaseCounter, TS: ts, Args: values})
	l.mu.Unlock()
}

// hist returns the histogram of every span of that name, sampled for
// the file or not. It is empty, never nil.
func (l *spanLog) hist(name string) *stats.Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h := l.hists[name]; h != nil {
		return h
	}
	return stats.NewHistogram()
}

// kept reports how many spans the trace file will hold and how many
// sampled spans the cap turned away.
func (l *spanLog) kept() (n int, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans), l.dropped
}

func (l *spanLog) pagesOf(name string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pages[name]
}

// selfTimes returns, for every span that has children among spans, its
// duration minus the part of it its children cover: the time the layer
// spent itself, not waiting on the layer below. Overlapping children
// (an async read in flight beside a sync one) are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	byID := make(map[uint64]span, len(spans))
	kids := make(map[uint64][]span)
	for _, s := range spans {
		byID[s.id] = s
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]int64, len(kids))
	for id, ks := range kids {
		p, ok := byID[id]
		if !ok {
			continue
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].start < ks[j].start })
		covered, upTo := int64(0), p.start
		for _, k := range ks {
			lo, hi := max(k.start, upTo), min(k.end, p.end)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[id] = (p.end - p.start) - covered
	}
	return out
}

// meanSelf is the mean self time in ns of the kept spans of that name
// which have children, and how many there were.
func (l *spanLog) meanSelf(name string) (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := selfTimes(l.spans)
	var sum int64
	n := 0
	for _, s := range l.spans {
		if v, ok := self[s.id]; ok && s.name == name {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// tracePath is where a traced run of a workload leaves its Chrome trace.
func tracePath(workload string) string {
	return filepath.Join(workDir, "trace-"+workload+".json")
}

// writeChrome writes the kept spans in internal/trace's Chrome-trace
// format, the one the DES writes, so a real fault and a simulated one
// open side by side.
func (l *spanLog) writeChrome(path, workload string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := trace.New(len(l.spans) + len(l.counters) + 1)
	rec.ProcessName(0, "bench "+workload)
	for _, s := range l.spans {
		rec.Span(s.name, "bench", 0, s.tid, s.start, s.end,
			map[string]any{"id": s.id, "parent": s.parent, "pages": s.pages})
	}
	for _, c := range l.counters {
		rec.Add(c)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteJSON(w); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// pinSlot is what a pinning goroutine publishes so the shim can name
// the pin a backing call belongs to: there is no other way to learn,
// from below upager, which Pin caused a Read.
type pinSlot struct {
	pg  atomic.Int64 // page being pinned, -1 when idle
	id  atomic.Uint64
	kid atomic.Bool // a backing call matched this pin
}

// tracedBacking sits between upager and its store and records a span
// per Read/ReadV/WriteV while on is set. It forwards every call
// unchanged.
type tracedBacking struct {
	upager.Backing
	layer string // "memnode" or "memcluster": the layer the spans time
	log   *spanLog
	on    *atomic.Bool
	slots []*pinSlot
}

const evictorTID = clients // the pager's write-behind goroutine, after the pinners

// parentOf finds the pin that is faulting the page at off.
func (b *tracedBacking) parentOf(off int64) (id uint64, tid int) {
	pg := off / pageBytes
	for i, s := range b.slots {
		if s.pg.Load() == pg {
			s.kid.Store(true)
			return s.id.Load(), i
		}
	}
	return 0, evictorTID
}

func (b *tracedBacking) Read(handle uint64, offset, length int64) ([]byte, error) {
	if !b.on.Load() {
		return b.Backing.Read(handle, offset, length)
	}
	parent, tid := b.parentOf(offset)
	t0 := time.Now()
	body, err := b.Backing.Read(handle, offset, length)
	b.log.add(b.layer+".Read", tid, t0, time.Now(), parent, 1)
	return body, err
}

func (b *tracedBacking) ReadV(handle uint64, offsets []int64, pb int64) ([][]byte, error) {
	if !b.on.Load() {
		return b.Backing.ReadV(handle, offsets, pb)
	}
	t0 := time.Now()
	pages, err := b.Backing.ReadV(handle, offsets, pb)
	b.log.add(b.layer+".ReadV", evictorTID, t0, time.Now(), 0, len(offsets))
	return pages, err
}

func (b *tracedBacking) WriteV(handle uint64, offsets []int64, pages [][]byte) error {
	if !b.on.Load() {
		return b.Backing.WriteV(handle, offsets, pages)
	}
	t0 := time.Now()
	err := b.Backing.WriteV(handle, offsets, pages)
	b.log.add(b.layer+".WriteV", evictorTID, t0, time.Now(), 0, len(offsets))
	return err
}

// tracedAsyncBacking adds ReadAsync. It exists because upager picks its
// fault path by type assertion: a shim that hid ReadAsync would switch
// the pager to its synchronous read (58k -> 80k pins/s on TCP) and the
// trace would describe a different program.
type tracedAsyncBacking struct {
	tracedBacking
	async upager.AsyncBacking
}

func (b *tracedAsyncBacking) ReadAsync(handle uint64, offset, length int64) *memnode.Pending {
	if !b.on.Load() {
		return b.async.ReadAsync(handle, offset, length)
	}
	parent, tid := b.parentOf(offset)
	// Timing an async read costs a goroutine, which on the shm ring is
	// a fifth of the read itself, so only the requests sampled for the
	// trace file pay it; their histogram is a uniform one-in-eight.
	if !sampled(parent) {
		return b.async.ReadAsync(handle, offset, length)
	}
	t0 := time.Now()
	p := b.async.ReadAsync(handle, offset, length)
	// The span ends when the read completes, not when the pager gets
	// round to waiting for it. The goroutine ends with the read.
	go func() {
		<-p.Done()
		b.log.add(b.layer+".Read", tid, t0, time.Now(), parent, 1)
	}()
	return p
}

// traceBacking wraps inner, keeping ReadAsync visible when inner has it.
func traceBacking(inner upager.Backing, layer string, log *spanLog, on *atomic.Bool, slots []*pinSlot) upager.Backing {
	tb := tracedBacking{Backing: inner, layer: layer, log: log, on: on, slots: slots}
	if a, ok := inner.(upager.AsyncBacking); ok {
		return &tracedAsyncBacking{tracedBacking: tb, async: a}
	}
	return &tb
}
