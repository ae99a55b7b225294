// The file link, client side.
//
// A client whose server advertises shm makes its stream the file link:
// the TCP stream plus a table of attached region files. Attaching a
// region (attach: a unix-socket dial, the token and the region's ID out,
// the region file's fd back) happens when the client registers it,
// replays its REGISTER, or negotiates a new stream, and for a region it
// did not register before its first synchronous page verb — never
// inside start. A region is tried once per stream.
// From then on every page verb on the region — a synchronous one, an
// attempt of the retry loop, a started one — runs on the caller's
// goroutine through one function, runFile, built from the op's
// prototype with no call and no descriptor table: inBounds, exec's own
// range check, then one pread or pwrite per page, and the counter page
// bumped. No goroutine, hand-off or second copy is involved, and the
// server's CPU not at all. Everything else, and page verbs on a region
// not attached, rides the stream's frames.
//
// The client never maps a region file, only its counter page, and only
// after checking that the file is sealed against shrinking: a hostile
// server that cut the file under a client mapping would SIGBUS the
// client, where a pread past the end of a file merely returns short.
// Crash semantics are the TCP stream's: its EOF poisons the link, which
// drops every file, and the REGISTER replay that follows attaches the
// new region. A region the server revokes (UNREGISTER, Close) is dropped
// at the next verb, which rides the frames instead.
package memnode

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"        //magevet:ok memnode is a real transport client, not virtual-time simulation code
	"sync/atomic" //magevet:ok host-side region-file table and reference counts, not simulation state
)

// errShmUnsupported is surfaced when Options.Transport forces shm on a
// platform (or against a server) that cannot provide it.
var errShmUnsupported = errors.New("memnode: shm transport unsupported on this platform")

// helloExt is the decoded shm extension of a HELLO response.
type helloExt struct {
	shm   bool
	token uint64
	path  string
}

// parseHelloExt decodes the optional extension after the mandatory
// magic+version. Anything malformed reads as "no shm offered" — the
// extension can only ever widen the transport choice, never break the
// TCP path.
func parseHelloExt(body []byte) helloExt {
	var e helloExt
	if len(body) < helloRespLen+18 {
		return e
	}
	if binary.LittleEndian.Uint64(body[16:])&helloFlagShm == 0 {
		return e
	}
	e.token = binary.LittleEndian.Uint64(body[24:])
	pl := int(binary.LittleEndian.Uint16(body[32:]))
	// len(body) >= 34 held by the caller's length check; subtracted form
	// so the comparison cannot wrap.
	if pl == 0 || len(body)-34 < pl {
		return e
	}
	e.path = string(body[34 : 34+pl])
	e.shm = true
	return e
}

// regionFile is an attached region: the fd its verbs pread and pwrite,
// and the counter page, the one page of the file the client maps.
type regionFile struct {
	fd   int
	size int64 // the region's bytes, which its verbs are held to
	page []byte
	ctr  *counters

	// refs counts the link's reference and one per verb using fd; the
	// last release after drop unmaps and closes, exactly once, so that an
	// fd is closed only after the last verb using it has returned.
	refs    atomic.Int64
	dropped atomic.Bool
	once    sync.Once
}

// acquire takes a reference for a verb, unless the file was dropped.
// Increment, then check: once the increment lands refs cannot reach
// zero under the verb, so either it sees dropped and backs out, or the
// close waits for its release.
func (f *regionFile) acquire() bool {
	f.refs.Add(1)
	if f.dropped.Load() {
		f.release()
		return false
	}
	return true
}

func (f *regionFile) release() {
	if f.refs.Add(-1) == 0 && f.dropped.Load() {
		f.once.Do(func() {
			unmapPage(f.page)
			_ = closeFd(f.fd) // nothing uses it any more; a close error changes nothing
		})
	}
}

// drop is the link letting go of the file.
func (f *regionFile) drop() {
	f.dropped.Store(true)
	f.release()
}

// fileLink is what makes a stream the file link: where to attach, and
// the region files attached, by the server's region ID — nil for one
// that was tried and could not be. The table is replaced whole under mu
// and read with one atomic load.
type fileLink struct {
	ext   helloExt
	mu    sync.Mutex
	dead  bool // the stream failed: nothing more is attached
	files atomic.Pointer[map[uint64]*regionFile]
}

// acquire returns region id's file with a verb's reference taken, or nil.
func (l *fileLink) acquire(id uint64) *regionFile {
	m := l.files.Load()
	if m == nil {
		return nil
	}
	if f := (*m)[id]; f != nil && f.acquire() {
		return f
	}
	return nil
}

// tried reports whether region id was attached, or tried, on this link.
func (l *fileLink) tried(id uint64) bool {
	m := l.files.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[id]
	return ok
}

// update replaces the table with what edit makes of a copy of it,
// unless the link is dead; it reports whether it did.
func (l *fileLink) update(edit func(map[uint64]*regionFile)) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return false
	}
	m := make(map[uint64]*regionFile)
	if old := l.files.Load(); old != nil {
		for id, f := range *old { //magevet:ok copy of the file table; order cannot matter
			m[id] = f
		}
	}
	edit(m)
	l.files.Store(&m)
	return true
}

// add files f as region id's, and drops it when the link is dead or
// already has one.
func (l *fileLink) add(id uint64, f *regionFile) {
	kept := false
	l.update(func(m map[uint64]*regionFile) {
		if m[id] == nil {
			m[id], kept = f, true
		}
	})
	if !kept {
		f.drop()
	}
}

// remove drops region id's file — only when it is f, if f is not nil —
// and leaves the region tried.
func (l *fileLink) remove(id uint64, f *regionFile) {
	var gone *regionFile
	l.update(func(m map[uint64]*regionFile) {
		if g := m[id]; g != nil && (f == nil || g == f) {
			gone, m[id] = g, nil
		}
	})
	if gone != nil {
		gone.drop()
	}
}

// close drops every file, for good: the stream failed.
func (l *fileLink) close() {
	l.mu.Lock()
	l.dead = true
	m := l.files.Swap(nil)
	l.mu.Unlock()
	if m != nil {
		for _, f := range *m { //magevet:ok drop-all: each file is dropped exactly once, order cannot matter
			if f != nil {
				f.drop()
			}
		}
	}
}

// attach asks st's server for region id's file — size bytes, as this
// client registered it, or 0 for whatever size the server says — and
// adds it to st's file link. A region the server does not have is not
// attached and is no failure; any other failure leaves the region's
// verbs on the frames and counts a fallback.
func (c *Client) attach(st *stream, id uint64, size int64) {
	if st == nil || st.files == nil {
		return
	}
	f, err := c.dialAttach(st.files.ext, id, size)
	if err != nil {
		if !errors.Is(err, errRegionLost) {
			c.shmFallbacks.Add(1)
		}
		st.files.update(func(m map[uint64]*regionFile) {
			if _, ok := m[id]; !ok {
				m[id] = nil // tried
			}
		})
		return
	}
	st.files.add(id, f)
}

// attachAll attaches every region this client registered to a new
// stream, before any op can use it.
func (c *Client) attachAll(st *stream) {
	m := *c.regions.Load()
	regs := make([]region, 0, len(m))
	for _, reg := range m { //magevet:ok snapshot of the region table, sorted below
		regs = append(regs, reg)
	}
	slices.SortFunc(regs, func(a, b region) int { return cmp.Compare(a.srvID, b.srvID) })
	for _, reg := range regs {
		c.attach(st, reg.srvID, reg.size)
	}
}

// maxRegionBytes bounds the region size an attach answer may claim, so
// that the layout arithmetic on it cannot overflow.
const maxRegionBytes = 1 << 48

// dialAttach runs one attach exchange and checks what came back: a fd,
// for the size asked (any, when that is 0), of a file laid out and
// sealed as a region file is.
func (c *Client) dialAttach(ext helloExt, id uint64, size int64) (*regionFile, error) {
	conn, err := net.DialTimeout("unix", ext.path, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("shm attach: %w", err)
	}
	defer func() { _ = conn.Close() }() // one exchange per connection; what it gave is checked below
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		return nil, errors.New("shm attach: not a unix connection")
	}
	if err := uc.SetDeadline(c.deadline()); err != nil {
		return nil, err
	}
	var req [attachReqLen]byte
	binary.LittleEndian.PutUint64(req[0:], attachMagic)
	binary.LittleEndian.PutUint64(req[8:], ext.token)
	binary.LittleEndian.PutUint64(req[16:], id)
	if _, err := uc.Write(req[:]); err != nil {
		return nil, fmt.Errorf("shm attach: %w", err)
	}
	var resp [attachRespLen]byte
	fd, err := shmRecvFd(uc, resp[:])
	if err != nil {
		return nil, fmt.Errorf("shm attach: %w", err)
	}
	fail := func(err error) (*regionFile, error) {
		if fd >= 0 {
			_ = closeFd(fd) // refused or unfit; the error says why
		}
		return nil, err
	}
	got := int64(binary.LittleEndian.Uint64(resp[1:]))
	switch {
	case resp[0] != statusOK:
		return fail(statusError(resp[0], resp[2:2+min(int(resp[1]), attachRespLen-2)]))
	case fd < 0:
		return fail(errors.New("shm attach: no region file came"))
	case got <= 0 || got > maxRegionBytes || (size != 0 && got != size):
		return fail(fmt.Errorf("shm attach: region of %d bytes, want %d", got, size))
	}
	size = got
	if err := checkRegionFile(fd, size); err != nil {
		return fail(fmt.Errorf("shm attach: %w", err))
	}
	page, ctr, err := mapCounterPage(fd, size)
	if err != nil {
		return fail(fmt.Errorf("shm attach: counter page: %w", err))
	}
	f := &regionFile{fd: fd, size: size, page: page, ctr: ctr}
	f.refs.Store(1) // the link's
	return f, nil
}

// runFile is the one way a page verb reaches a region file. When s is
// the file link and has the file of region srvID, proto — a READ, WRITE,
// READV or WRITEV as the client shaped it — runs on it here, on the
// caller's goroutine, and ran is true: body is a READ's own body (none
// when it reads into a destination), err a terminal refusal or the
// file's failure under the verb, which fails s. ran is false, and
// nothing ran, when s has no file of the region or the server revoked
// it, whose file is dropped: the verb rides the frames. Its callers are
// doPages, before a synchronous verb takes a window slot; attempts, on
// every page-verb attempt on the file link; and startFile, before a
// started op is made.
func (s *stream) runFile(proto *call, srvID uint64) (body []byte, ran bool, err error) {
	if s == nil || s.files == nil || !pageVerb(proto.op) {
		return nil, false, nil
	}
	f := s.files.acquire(srvID)
	if f == nil {
		return nil, false, nil
	}
	if f.ctr.isRevoked() {
		f.release()
		s.files.remove(srvID, f)
		return nil, false, nil
	}
	body, err = f.exec(proto)
	f.release()
	if err != nil && !IsTerminal(err) {
		s.fail(err) // the file failed under a verb exec accepted: re-dial
	}
	return body, true, err
}

// exec runs proto on the file, its ranges taken straight from it: a
// READ's or WRITE's offset and length, or a batch's offsets and the
// lengths of its pages. Every range is held to inBounds, which refuses
// in exec's words, before move reads the ranges into their buffers or
// writes them out; then the counters exec would have bumped. The
// client's shaping (check, readv, writev) has refused every request
// exec's shape would. A READ with no destination reads into a body of
// its own, which it returns.
func (f *regionFile) exec(proto *call) ([]byte, error) {
	offsets, bufs, total := proto.offsets, proto.dst, proto.dstLen
	var one [1]int64
	var page [1][]byte
	var err error
	switch proto.op {
	case opReadV, opWriteV:
		if proto.op == opWriteV {
			bufs, total = proto.src, proto.length
		}
		for i, b := range bufs {
			if err = inBounds(i, offsets[i], int64(len(b)), f.size); err != nil {
				break
			}
		}
	default:
		one[0], total = proto.offset, proto.length
		offsets = one[:]
		err = inBounds(-1, proto.offset, proto.length, f.size)
	}
	if err != nil {
		return nil, &serverError{msg: err.Error()}
	}
	var body []byte
	switch {
	case proto.op == opWrite:
		page[0] = proto.bufs[0]
		bufs = page[:]
	case proto.op == opRead && bufs == nil:
		body = GetBuf(int(total))
		page[0] = body
		bufs = page[:]
	}
	if err := f.move(proto.op == opWrite || proto.op == opWriteV, offsets, bufs); err != nil {
		PutBuf(body)
		return nil, err
	}
	f.ctr.tally(proto.op, len(bufs), total)
	return body, nil
}

// move preads range i, bufs[i] at offsets[i], into bufs[i], or pwrites
// it from there: one syscall per range.
func (f *regionFile) move(write bool, offsets []int64, bufs [][]byte) error {
	for i, b := range bufs {
		var err error
		if write {
			err = pwriteFull(f.fd, b, offsets[i])
		} else {
			err = preadFull(f.fd, b, offsets[i])
		}
		if err != nil {
			return fmt.Errorf("memnode: region file: %w", err)
		}
	}
	return nil
}
