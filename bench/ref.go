package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"time"
)

// The reference: a fixed request loop that owes nothing to the programs
// under test, run in short slices between the slices of the workload
// while the workload's clients are parked and its daemons idle. The box
// (see pin.go) slows the same code down by up to 1.7x for seconds or
// minutes at a time, and no statistic inside a run removes a drift
// slower than the run; but the reference, measured either side of every
// slice, slows down with it, so each slice is restated at the speed the
// reference says the box had (summarize). A compute loop does not do as
// a reference: integer arithmetic stayed within 3-5 % while the
// workloads moved by 30 %. What moves is the memory hierarchy under the
// kernel's network path, system calls and context switches, so the
// reference is a small server of its own over loopback TCP: windows of
// 16 requests, 512-byte replies, two processes handing over one CPU.

const (
	refWindow     = 16
	refReplyBytes = 512
	// refLen is one reference slice; refSettle, slept before the one
	// that follows a timed slice, lets the work a parked client left
	// behind (an evictor batch, a reply in flight) drain first.
	refLen    = 50 * time.Millisecond
	refSettle = 2 * time.Millisecond
	// refOpsPerS is the reference's rate on the reference box when the
	// box is quiet: timings are restated to this speed, so that on a
	// quiet box they read as measured.
	refOpsPerS = 800_000.0
)

var refReady = regexp.MustCompile(`bench-ref: serving on (\S+)`)

// refServe is the harness binary's -refserver mode: it serves the one
// connection the harness makes and exits when the harness hangs up.
func refServe() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-ref: %v\n", err)
		return 1
	}
	fmt.Printf("bench-ref: serving on %s\n", ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-ref: %v\n", err)
		return 1
	}
	refAnswer(conn)
	return 0
}

// refAnswer answers every request line with a fixed reply, flushing when
// no further request is buffered, until the peer hangs up.
func refAnswer(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 32<<10)
	w := bufio.NewWriterSize(conn, 32<<10)
	reply := make([]byte, refReplyBytes)
	for i := range reply {
		reply[i] = 'r'
	}
	reply[len(reply)-1] = '\n'
	for {
		if _, err := r.ReadSlice('\n'); err != nil {
			return
		}
		if _, err := w.Write(reply); err != nil {
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// refClient is the harness's end of the reference.
type refClient struct {
	conn  net.Conn
	req   []byte
	reply []byte
}

// startRef spawns the reference server, a daemon of this stack like the
// others, and connects to it.
func (s *stack) startRef(ctx context.Context) (*refClient, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon("bench-ref", self, s.runDir, "-refserver")
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	addr, err := d.awaitLines(ctx, refReady, 1)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr[0])
	if err != nil {
		return nil, err
	}
	s.onClose(func() { conn.Close() })
	return newRefClient(conn), nil
}

func newRefClient(conn net.Conn) *refClient {
	c := &refClient{conn: conn, reply: make([]byte, refWindow*refReplyBytes)}
	for i := 0; i < refWindow; i++ {
		c.req = append(c.req, "get k0000beef\n"...)
	}
	return c
}

// measure runs the reference for refLen and returns its rate in
// requests per second.
func (c *refClient) measure() (float64, error) {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < refLen {
		if _, err := c.conn.Write(c.req); err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.reply); err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
		n += refWindow
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
