package memcluster_test

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"mage/internal/memcluster"
	"mage/internal/memnode"
)

// dyingProxy fronts one replica. The proxies of a shard share armed:
// the first of them to carry server bytes after it is set forwards cut
// of those bytes, hangs up and stops listening — a replica that dies
// mid-response and does not come back.
type dyingProxy struct {
	ln    net.Listener
	armed *atomic.Bool
	cut   int
	died  atomic.Bool
}

func startDyingProxy(t *testing.T, upstream string, armed *atomic.Bool, cut int) *dyingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &dyingProxy{ln: ln, armed: armed, cut: cut}
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			go p.forward(cli, upstream)
		}
	}()
	return p
}

func (p *dyingProxy) forward(cli net.Conn, upstream string) {
	defer cli.Close()
	up, err := net.Dial("tcp", upstream)
	if err != nil {
		return
	}
	defer up.Close()
	go io.Copy(up, cli) // ends when either side is closed
	buf := make([]byte, 32<<10)
	left := -1 // bytes this connection may still forward; -1: all of them
	for {
		n, err := up.Read(buf)
		if left < 0 && n > 0 && p.armed.CompareAndSwap(true, false) {
			left = p.cut
			p.died.Store(true)
			p.ln.Close()
		}
		if left >= 0 && n >= left {
			cli.Write(buf[:left])
			return
		}
		if left >= 0 {
			left -= n
		}
		if n > 0 {
			cli.Write(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

// TestReadVIntoFailsOverIntoSameBuffers: the replica the ladder tries
// first dies a page and a half into the batch's response. Its pages
// were landing in the caller's buffers; the second replica fills the
// same buffers, whole.
func TestReadVIntoFailsOverIntoSameBuffers(t *testing.T) {
	_, addrs := startServers(t, 1, 2)
	var armed atomic.Bool
	proxies := make([]*dyingProxy, 2)
	fronted := [][]string{make([]string, 2)}
	for i, a := range addrs[0] {
		proxies[i] = startDyingProxy(t, a, &armed, int(17+testPage+testPage/2)) // a v2 response header, then a page and a half
		fronted[0][i] = proxies[i].ln.Addr().String()
	}
	opts := testOpts()
	opts.Node.Transport = memnode.TransportTCP
	cl, err := memcluster.New(fronted, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Register(testPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cl, h, 3)

	pages := []int64{5, 1, 30, 17, 2, 44}
	offs := make([]int64, len(pages))
	var want []byte
	for i, p := range pages {
		offs[i] = p * testPage
		want = append(want, pageBody(p, 3)...)
	}
	buf := bytes.Repeat([]byte{0xEE}, len(want))
	armed.Store(true)
	if err := cl.ReadVInto(h, offs, memnode.SplitPages(buf, testPage)); err != nil {
		t.Fatalf("batch across a dying replica: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("the surviving replica did not fill the buffers the dead one had started on")
	}
	if !proxies[0].died.Load() && !proxies[1].died.Load() {
		t.Fatal("no replica died: the batch never crossed the cut")
	}
	if st := cl.Stats(); st.Failovers == 0 {
		t.Errorf("stats show no failover: %+v", st)
	}
	// ReadV is the same path over buffers of its own.
	got, err := cl.ReadV(h, offs, testPage)
	if err != nil || !bytes.Equal(bytes.Join(got, nil), want) {
		t.Errorf("ReadV after the failover: err=%v", err)
	}
}
