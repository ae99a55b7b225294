package memnode

// Goroutine-lifecycle regression tests for the client teardown paths.
// Every link spins up background goroutines — the stream's writer/reader
// pair, on TCP and on the file link alike — and Close must reap all of
// them, including after a mid-life transport fallback where the client
// has owned more than one stream. These tests pin that contract
// with runtime.NumGoroutine before/after repeated dial/close cycles,
// using the same retry-settle idiom as TestServerChaos (stacks retire
// asynchronously after Close returns).

import (
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count returns to within
// slack of the baseline, failing after the deadline. Tolerating a small
// slack absorbs runtime-internal goroutines (GC workers, netpoll) that
// come and go independently of the code under test.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second) // goroutine-leak check needs wall time
	for {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Now().After(deadline) { // goroutine-leak check needs wall time
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond) // polling for goroutine exit in a real-time test
	}
}

// cycleClient dials, does one write/read roundtrip, and closes — the
// minimal lifecycle that forces every background goroutine to start.
func cycleClient(t *testing.T, addr string, opts Options, wantKind string) {
	t.Helper()
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	roundtripRegion(t, c, id)
	// Connections are lazy: the transport is only known after an op.
	if got := c.TransportKind(); got != wantKind {
		t.Fatalf("TransportKind = %q, want %q", got, wantKind)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClientCloseReleasesGoroutinesTCP: repeated TCP dial/close cycles
// must not accumulate writer/reader goroutines.
func TestClientCloseReleasesGoroutinesTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := NewServer("127.0.0.1:0", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cycleClient(t, srv.Addr(), fastOpts(), "tcp-v2")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)
}

// TestClientCloseReleasesGoroutinesShm: same contract on the file link,
// whose attaches start nothing that outlives them.
func TestClientCloseReleasesGoroutinesShm(t *testing.T) {
	if !ShmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
	baseline := runtime.NumGoroutine()
	srv, err := NewServerOptions("127.0.0.1:0", 16<<20, ServerOptions{EnableShm: true})
	if err != nil {
		t.Skipf("shm server unavailable: %v", err)
	}
	for i := 0; i < 5; i++ {
		cycleClient(t, srv.Addr(), fastOpts(), "shm")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)
}

// TestClientCloseReleasesGoroutinesFallback: a client that negotiated
// shm, lost the server, and reconnected over plain TCP has owned two
// streams in its lifetime; Close must reap the survivors of both.
func TestClientCloseReleasesGoroutinesFallback(t *testing.T) {
	if !ShmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
	baseline := runtime.NumGoroutine()
	srv, err := NewServerOptions("127.0.0.1:0", 16<<20, ServerOptions{EnableShm: true})
	if err != nil {
		t.Skipf("shm server unavailable: %v", err)
	}
	addr := srv.Addr()
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	roundtripRegion(t, c, id)
	if got := c.TransportKind(); got != "shm" {
		t.Fatalf("TransportKind = %q, want shm", got)
	}

	// Kill the shm server and restart tcp-only on the same port: the
	// next op finds its region revoked, and forces reconnect + fallback,
	// retiring the file link.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second) // rebinding a just-released port takes wall time
	var srv2 *Server
	for {
		srv2, err = NewServer(addr, 16<<20)
		if err == nil {
			break
		}
		if time.Now().After(deadline) { // rebinding a just-released port takes wall time
			t.Fatalf("could not restart server on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond) // waiting for the OS to release the port
	}
	roundtripRegion(t, c, id)
	if got := c.TransportKind(); got != "tcp-v2" {
		t.Fatalf("TransportKind after fallback = %q, want tcp-v2", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)
}
