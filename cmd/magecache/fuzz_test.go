package main

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzTail follows every fuzz input: enough newlines to complete a
// request the input left half-sent (a line, or a set payload of up to a
// page and its trailer), then a quit, so that every conversation ends
// with the server closing the connection.
var fuzzTail = strings.Repeat("\n", pageBytes+2) + "quit\n"

// modelReplies is the reference: parseRequest walked over the whole
// stream in one piece, executed against a map. The server sees the same
// bytes in arbitrary pieces through a sliding buffer, flushes and looks
// ahead between them, and pages its values through eight frames; its
// reply stream must be byte-identical. Any disagreement on where a
// request ends turns payload bytes into requests, or requests into
// payload, on one side only, and shows here.
func modelReplies(stream []byte) []byte {
	vals := map[string]string{}
	var out []byte
	for {
		req, size, ok := parseRequest(stream)
		if !ok {
			return out
		}
		switch {
		case req.err != "":
			out = append(out, "ERR "+req.err+"\n"...)
			if req.fatal {
				return out
			}
		case req.verb == verbGet:
			if v, ok := vals[string(req.key)]; ok {
				out = append(out, "VALUE "+strconv.Itoa(len(v))+"\n"+v+"\n"...)
			} else {
				out = append(out, "MISS\n"...)
			}
		case req.verb == verbSet:
			vals[string(req.key)] = string(req.payload)
			out = append(out, "STORED\n"...)
		case req.verb == verbDel:
			if _, ok := vals[string(req.key)]; ok {
				delete(vals, string(req.key))
				out = append(out, "DELETED\n"...)
			} else {
				out = append(out, "MISS\n"...)
			}
		case req.verb == verbQuit:
			return out
		case req.verb == verbUnknown:
			out = append(out, "ERR unknown verb "+strconv.Quote(string(req.key))+"\n"...)
		}
		stream = stream[size:]
	}
}

// serveChunked feeds stream to a connection loop over a net.Pipe in
// pieces whose sizes follow from chunk, and returns every byte the
// server sent before it closed the connection.
func serveChunked(t *testing.T, c *Cache, stream []byte, chunk uint8) []byte {
	client, server := net.Pipe()
	defer client.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		handleConn(server, c)
	}()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		x := uint32(chunk)
		for len(stream) > 0 {
			n := len(stream)
			if chunk != 0 { // 0: the whole stream in one write
				x = x*1103515245 + 12345
				n = 1 + int(x>>16)%(8*int(chunk))
			}
			if n > len(stream) {
				n = len(stream)
			}
			if _, err := client.Write(stream[:n]); err != nil {
				return // the server hung up on a fatal request
			}
			stream = stream[n:]
		}
	}()
	client.SetReadDeadline(time.Now().Add(20 * time.Second))
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("server neither answered nor hung up: %v (after %q)", err, tailOf(got))
	}
	<-served
	client.Close()
	<-wrote
	return got
}

func tailOf(b []byte) []byte {
	if len(b) > 200 {
		return b[len(b)-200:]
	}
	return b
}

func FuzzServeProtocol(f *testing.F) {
	page := strings.Repeat("p", pageBytes)
	for _, seed := range []string{
		"get a\n",
		"set a 5\nhello\nget a\ndel a\nget a\n",
		"set a 5\nhello\nset b 3\nget\nget a\nget b\n", // a payload that looks like a request
		"set a 3\nabcd\nget a\n",                       // payload runs on
		"set a 12\nget b\nquit\n\nget a\n",             // requests inside a payload
		"set big 4096\n" + page + "\nget big\nset big 0\n\nget big\n",
		"set a 4097\n" + page + "x\n",
		"get " + strings.Repeat("k", maxKeyLen+1) + "\nset " + strings.Repeat("k", maxKeyLen+1) + " 2\nhi\nget a\n",
		strings.Repeat("x", maxLineLen-1) + "\nget a\n",
		strings.Repeat("x", maxLineLen) + "\nget a\n",
		"set a\nget a\n",
		"set a 5",
		"set a 5\nhel",
		"\r\n \n\tget  a \r\nbogus verb\nQUIT\nquit\nget a\n",
		"set a 5\nhello\n" + strings.Repeat("get a\n", 40) + "set a 700\n" + strings.Repeat("v", 700) + "\n" + strings.Repeat("get a\n", 40),
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(1))
		f.Add([]byte(seed), uint8(37))
	}
	// Sixteen values of one page each under eight frames: GETs of absent
	// pages in every window, for the look-ahead to batch.
	var paged strings.Builder
	for i := 0; i < 16; i++ {
		paged.WriteString("set k" + strconv.Itoa(i) + " 3000\n" + strings.Repeat(string(rune('a'+i)), 3000) + "\n")
	}
	for i := 0; i < 120; i++ {
		paged.WriteString("get k" + strconv.Itoa((i*7)%16) + "\n")
	}
	f.Add([]byte(paged.String()), uint8(0))
	f.Add([]byte(paged.String()), uint8(200))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 64<<10 {
			t.Skip("the heap below is sized for inputs up to 64 KiB")
		}
		// The densest input is "set <key> 0\n\n": ten bytes for a 64-byte
		// cell, so 64 KiB of input fills at most 103 heap pages, plus a
		// carve page per class. The model has no eviction.
		c, _ := newMemCache(t, 256, 8)
		stream := append(append([]byte(nil), data...), fuzzTail...)
		want := modelReplies(stream)
		got := serveChunked(t, c, stream, chunk)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("replies diverge from the model at byte %d of %d/%d:\n got ...%q\nwant ...%q",
				i, len(got), len(want), tailOf(got[:min(len(got), i+100)]), tailOf(want[:min(len(want), i+100)]))
		}
		if s := c.Stats(); s.Steals != 0 {
			t.Fatalf("the heap stole %d cells: the model does not cover eviction", s.Steals)
		}
		// However the stream was cut up and however it ended — a fatal
		// request, a quit, a hang-up — the connection took no cell with it.
		checkLedger(t, c)
	})
}
