package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strconv"
)

// serveCache speaks a minimal memcached-flavoured text protocol:
//
//	get <key>\n            -> VALUE <n>\n<bytes>\n | MISS\n
//	set <key> <n>\n<bytes>\n -> STORED\n
//	del <key>\n            -> DELETED\n | MISS\n
//	quit\n                 closes the connection
//
// Errors are reported as "ERR <reason>\n". A request line is at most
// maxLineLen bytes, a key at most maxKeyLen, a value at most one page.
// A request after which the stream cannot be resynchronised — a line
// that is too long, a malformed set line, a set payload not followed by
// a newline — closes the connection after its ERR reply.
func serveCache(ln net.Listener, c *Cache) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go handleConn(conn, c)
	}
}

const (
	maxKeyLen  = 250 // memcached's limit
	maxLineLen = 512 // "set " + key + " 4096\n" with room to spare

	// connBuf sizes a connection's read and write buffers. A pipelining
	// client's window (the benchmark sends 16 requests per flush; 16
	// SETs of the value model are 17 KiB, their GET replies as much)
	// must fit, so that one refill shows the look-ahead the whole window
	// and one write carries all its replies. The largest single request
	// (maxLineLen + a page + newline) fits several times over.
	connBuf = 32 << 10
)

type verb uint8

const (
	verbNone verb = iota // empty line: no reply
	verbGet
	verbSet
	verbDel
	verbQuit
	verbUnknown // key holds the verb as sent
)

// request is one parsed request. key and payload alias the buffer it
// was parsed from.
type request struct {
	verb    verb
	key     []byte
	payload []byte // set: the value
	err     string // non-empty: reply "ERR <err>" instead of executing
	fatal   bool   // ... and close: the next request boundary is unknown
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// nextField splits the first whitespace-delimited field off b.
func nextField(b []byte) (field, rest []byte) {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	i := 0
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return b[:i], b[i:]
}

// parseLength parses a set line's decimal payload length.
func parseLength(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > pageBytes {
			return 0, false
		}
	}
	return n, true
}

// fatal is parseRequest's result for a request that ends the
// conversation.
func fatal(msg string) (request, int, bool) {
	return request{err: msg, fatal: true}, 0, true
}

// parseRequest parses the request at the front of buf. ok is false when
// buf does not yet hold all of it; otherwise size is the number of
// bytes it occupies (meaningless after a fatal one). It is the only
// parser: the serving loop and the look-ahead both walk the buffer with
// it, so they cannot disagree on where a request ends.
func parseRequest(buf []byte) (req request, size int, ok bool) {
	line := buf
	if len(line) > maxLineLen {
		line = line[:maxLineLen]
	}
	nl := bytes.IndexByte(line, '\n')
	if nl < 0 {
		if len(buf) >= maxLineLen {
			return fatal("line too long")
		}
		return request{}, 0, false
	}
	size = nl + 1
	v, args := nextField(line[:nl])
	var nargs int
	var arg [2][]byte
	for {
		var f []byte
		if f, args = nextField(args); len(f) == 0 {
			break
		}
		if nargs < len(arg) {
			arg[nargs] = f
		}
		nargs++
	}
	req.key = arg[0]
	switch {
	case len(v) == 0:
		return req, size, true
	case string(v) == "get":
		req.verb = verbGet
		if nargs != 1 {
			req.err = "get wants 1 arg"
		}
	case string(v) == "del":
		req.verb = verbDel
		if nargs != 1 {
			req.err = "del wants 1 arg"
		}
	case string(v) == "set":
		req.verb = verbSet
		if nargs != 2 {
			return fatal("set wants 2 args")
		}
		n, valid := parseLength(arg[1])
		if !valid {
			return fatal("bad length")
		}
		if len(buf) < size+n+1 {
			return request{}, 0, false
		}
		if buf[size+n] != '\n' {
			return fatal("set payload not followed by newline")
		}
		req.payload = buf[size : size+n]
		size += n + 1
	case string(v) == "quit":
		req.verb = verbQuit
		return req, size, true
	default:
		req.verb, req.key = verbUnknown, v
		return req, size, true
	}
	if req.err == "" && len(req.key) > maxKeyLen {
		req.err = "key too long"
	}
	return req, size, true
}

// connState is one connection. The unit of work is the window — every
// complete request the last read of the socket left in the buffer — not
// the single request: replies collect in w and leave in one write when
// the window is used up, and the window's misses, of its GETs and of
// its SETs alike, are started together, ahead of the requests that need
// them.
type connState struct {
	c   *Cache
	r   *bufio.Reader
	w   *bufio.Writer
	val []byte   // GET scratch: the value between its pinned frame and w
	pgs []uint64 // look-ahead scratch
	num [20]byte // reply length digits

	// resv[next:] are the cells reserved for the SETs of the window being
	// served, in request order; the look-ahead fills it, handle takes one
	// per SET until they run out. A reserved cell belongs to the
	// connection until handle publishes it or puts it back, and a window
	// ends with none left. noMore: a SET of this window went without, so
	// those behind it do too — handle cannot tell which SET a later
	// reservation would be for. keys holds the reserved SETs' keys.
	resv   []reservation
	keys   []byte
	next   int
	noMore bool
}

// maxReserve bounds the cells one window reserves. It is the pager's
// default fill batch: a page beyond what one FaultAhead claims would be
// demand-faulted anyway, and a connection whose peer stops reading must
// not sit on more of the heap than that.
const maxReserve = 32

func handleConn(conn net.Conn, c *Cache) {
	defer conn.Close()
	cs := &connState{
		c:   c,
		r:   bufio.NewReaderSize(conn, connBuf),
		w:   bufio.NewWriterSize(conn, connBuf),
		val: make([]byte, 0, pageBytes),
	}
	cs.serve()
	cs.unreserve()
	cs.w.Flush() // the ERR before a close; the peer may be gone already
}

func (cs *connState) serve() {
	for {
		buf, _ := cs.r.Peek(cs.r.Buffered()) // cannot fail: asks for what is there
		req, size, ok := parseRequest(buf)
		if !ok {
			// The window is used up and the socket is about to be read:
			// the one moment replies are flushed. A rule such as "flush
			// when nothing is buffered" would hold the replies back here
			// whenever part of a request is buffered, while the peer may
			// be waiting for them before it sends the rest.
			if cs.w.Flush() != nil {
				return
			}
			if _, err := cs.r.Peek(len(buf) + 1); err != nil {
				return
			}
			cs.lookAhead()
			continue
		}
		if !cs.handle(req) {
			return
		}
		cs.r.Discard(size) // cannot fail: size bytes are buffered
	}
}

// lookAhead runs after every read of the socket: it walks the complete
// requests now buffered, resolves each GET to the heap page its value
// is on, reserves each SET the cell it will fill, and hands the pages of
// both to the pager, which starts the absent ones' faults together. The
// pages are only a hint: a key the window itself deletes first, or sets
// into a cell it could not reserve, resolves to a page the GET will not
// read, which costs at most a wasted read.
//
// A SET's cell is reserved, not predicted: two connections interleave
// at every fault, so a peek at the free list would often name the cell
// the other one takes, and a wrong guess costs a wasted read on top of
// the demand fault it was meant to remove.
//
// A window of one is left to handle: its one page would be faulted by
// the Pin that needs it anyway, and a batch of one only adds a goroutine
// and a latch hand-off to that.
func (cs *connState) lookAhead() {
	buf, _ := cs.r.Peek(cs.r.Buffered())
	cs.pgs, cs.resv, cs.keys, cs.next, cs.noMore = cs.pgs[:0], cs.resv[:0], cs.keys[:0], 0, false
	var first request
	for n := 0; ; n++ {
		req, size, ok := parseRequest(buf)
		if !ok || req.fatal || req.verb == verbQuit {
			break
		}
		switch n {
		case 0:
			first = req
		case 1:
			cs.hint(first)
			fallthrough
		default:
			cs.hint(req)
		}
		buf = buf[size:]
	}
	if len(cs.pgs) > 0 {
		cs.c.pager.FaultAhead(cs.pgs)
	}
}

// hint adds the page req will pin to the look-ahead's list.
func (cs *connState) hint(req request) {
	if req.err != "" {
		return
	}
	switch req.verb {
	case verbGet:
		// A key the window has set by then is read from its new cell,
		// whose page is on the list already.
		for i := range cs.resv {
			if string(cs.resv[i].key) == string(req.key) {
				return
			}
		}
		if pg, ok := cs.c.pageOf(req.key); ok {
			cs.pgs = append(cs.pgs, pg)
		}
	case verbSet:
		if cs.noMore {
			return
		}
		cls, _ := classFor(len(req.payload)) // a parsed payload fits a page
		s, ok := cs.c.reserveCell(cls)
		if !ok {
			cs.noMore = true
			return
		}
		// An append that moves cs.keys leaves the keys reserved before it
		// in the array they were copied into, where they stay valid.
		cs.keys = append(cs.keys, req.key...)
		key := cs.keys[len(cs.keys)-len(req.key):]
		cs.resv = append(cs.resv, reservation{key: key, s: s, cls: cls})
		cs.noMore = len(cs.resv) == maxReserve
		cs.pgs = append(cs.pgs, uint64(s.pg))
	}
}

// unreserve puts back the cells the connection still holds.
func (cs *connState) unreserve() {
	for _, r := range cs.resv[cs.next:] {
		cs.c.freeCell(r.cls, r.s)
	}
}

// handle executes one request and buffers its reply. It reports whether
// the connection stays open.
func (cs *connState) handle(req request) bool {
	w := cs.w
	if req.err != "" {
		cs.replyErr(req.err)
		return !req.fatal
	}
	switch req.verb {
	case verbGet:
		val, ok, err := cs.c.AppendGet(cs.val[:0], req.key)
		switch {
		case err != nil:
			cs.replyErr(err.Error())
		case !ok:
			w.WriteString("MISS\n")
		default:
			w.WriteString("VALUE ")
			w.Write(strconv.AppendInt(cs.num[:0], int64(len(val)), 10))
			w.WriteByte('\n')
			w.Write(val)
			w.WriteByte('\n')
		}
	case verbSet:
		var err error
		if cs.next < len(cs.resv) {
			r := cs.resv[cs.next]
			cs.next++
			if string(r.key) != string(req.key) {
				panic("magecache: reservation out of step with the requests")
			}
			err = cs.c.setReserved(r, req.payload)
		} else {
			err = cs.c.set(req.key, req.payload)
		}
		if err != nil {
			cs.replyErr(err.Error())
		} else {
			w.WriteString("STORED\n")
		}
	case verbDel:
		if cs.c.delete(req.key) {
			w.WriteString("DELETED\n")
		} else {
			w.WriteString("MISS\n")
		}
	case verbQuit:
		return false
	case verbUnknown:
		cs.replyErr("unknown verb " + strconv.Quote(string(req.key)))
	}
	return true
}

// Write errors on w are sticky and surface at the next Flush.
func (cs *connState) replyErr(msg string) {
	cs.w.WriteString("ERR ")
	cs.w.WriteString(msg)
	cs.w.WriteByte('\n')
}
