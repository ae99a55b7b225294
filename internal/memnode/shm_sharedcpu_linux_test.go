//go:build linux

package memnode

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// shmHelperEnv selects a helper role for a re-executed test binary:
// TestShmSharedCPU needs a memnode and a client that are separate
// processes confined to one CPU, which the test process itself (already
// multi-threaded, GOMAXPROCS already sized) cannot become.
const shmHelperEnv = "MEMNODE_SHM_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(shmHelperEnv) {
	case "server":
		os.Exit(shmHelperServer())
	case "client":
		os.Exit(shmHelperClient())
	}
	os.Exit(m.Run())
}

// shmHelperServer serves shm until its stdin closes.
func shmHelperServer() int {
	srv, err := NewServerOptions("127.0.0.1:0", 64<<20, ServerOptions{
		EnableShm: true,
		ShmPath:   os.Getenv("MEMNODE_SHM_SOCK"),
	})
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	fmt.Println("ADDR", srv.Addr())
	_, _ = bufio.NewReader(os.Stdin).ReadString('\n') // EOF: the test is done with us
	_ = srv.Close()
	return 0
}

// shmHelperClient runs depth-1 reads over a required shm stream and
// prints what its waits cost after a warm-up.
func shmHelperClient() int {
	const warmup, ops = 2000, 20000
	opts := DefaultOptions()
	opts.Transport = TransportShm
	c, err := DialOptions(os.Getenv("MEMNODE_SHM_ADDR"), opts)
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	defer c.Close()
	id, err := c.Register(4 << 20)
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	var before ClientStats
	for i := 0; i < warmup+ops; i++ {
		if i == warmup {
			before = c.Metrics()
		}
		body, err := c.Read(id, int64(i%1024)*4096, 4096)
		if err != nil {
			fmt.Println("ERR", err)
			return 1
		}
		PutBuf(body)
	}
	m := c.Metrics()
	fmt.Printf("RESULT %s %d %d %d %d %d %d %d\n", c.TransportKind(), ops, runtime.GOMAXPROCS(0),
		m.ShmSpinYields-before.ShmSpinYields, m.ShmParks-before.ShmParks, m.ShmDoorbells-before.ShmDoorbells,
		m.Retries, m.Reconnects)
	return 0
}

// cpuMask holds 1024 CPUs, the kernel's own default limit.
type cpuMask [16]uint64

func schedAffinity(nr uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// TestShmSharedCPU runs a memnode and a depth-1 client as two processes
// on ONE CPU, where a yield can never hand the CPU to the peer. The
// parent of this change spent ~320 yields per op there (256 by the
// submitter, 64 by the completer, every op, before parking); the wait
// primitive must have stopped yielding but for its probes, and the
// parked path must be sound: no op retried. Asserted on counts, never
// on time.
func TestShmSharedCPU(t *testing.T) {
	if !shmSupported {
		t.Skip("shm transport unsupported on this platform")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Children inherit the affinity of the thread that forks them, and a
	// Go runtime that starts on one CPU sizes itself to it. So this
	// goroutine stays on one thread, narrowed to the last CPU it may use,
	// for as long as it starts helpers (it only waits for them besides).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var have, one cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &have); err != nil {
		t.Skipf("sched_getaffinity: %v", err)
	}
	cpu := -1
	for i, word := range have {
		for bit := 0; bit < 64; bit++ {
			if word&(1<<bit) != 0 {
				cpu = i*64 + bit
			}
		}
	}
	if cpu < 0 {
		t.Skip("empty affinity mask")
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		t.Skipf("sched_setaffinity to CPU %d: %v", cpu, err)
	}
	defer func() {
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &have); err != nil {
			t.Errorf("restoring affinity: %v", err)
		}
	}()

	helper := func(role string, env ...string) (*exec.Cmd, *bufio.Reader) {
		cmd := exec.Command(self, "-test.run=^$")
		cmd.Env = append(append(os.Environ(), shmHelperEnv+"="+role), env...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		return cmd, bufio.NewReader(out)
	}
	line := func(r *bufio.Reader, what string) []string {
		s, err := r.ReadString('\n')
		f := strings.Fields(s)
		if err != nil || len(f) < 2 || f[0] == "ERR" {
			t.Fatalf("%s: %q (%v)", what, s, err)
		}
		return f
	}

	srv, srvOut := helper("server", "MEMNODE_SHM_SOCK="+filepath.Join(t.TempDir(), "shm.sock"))
	srvIn, err := srv.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srvIn.Close()
		_ = srv.Wait()
	}()
	addr := line(srvOut, "server helper")[1]
	cli, cliOut := helper("client", "MEMNODE_SHM_ADDR="+addr)
	if err := cli.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Wait() }()
	timer := time.AfterFunc(2*time.Minute, func() { _ = cli.Process.Kill() })
	defer timer.Stop()

	f := line(cliOut, "client helper")
	var kind string
	var ops, procs, yields, parks, doorbells, retries, reconnects uint64
	if _, err := fmt.Sscan(strings.Join(f[1:], " "), &kind, &ops, &procs, &yields, &parks, &doorbells, &retries, &reconnects); err != nil {
		t.Fatalf("client helper result %q: %v", f, err)
	}
	t.Logf("CPU %d, GOMAXPROCS %d: %.2f wasted yields, %.2f parks, %.2f doorbells per op over %d depth-1 reads",
		cpu, procs, float64(yields)/float64(ops), float64(parks)/float64(ops), float64(doorbells)/float64(ops), ops)
	if kind != "shm" {
		t.Fatalf("client ran over %q, want shm", kind)
	}
	if procs != 1 {
		t.Fatalf("client helper came up with GOMAXPROCS %d: it is not confined to one CPU", procs)
	}
	if retries != 0 || reconnects != 0 {
		t.Errorf("%d retries, %d reconnects on the parked path", retries, reconnects)
	}
	if perOp := float64(yields) / float64(ops); perOp > 32 {
		t.Errorf("%.1f wasted yields per op against a peer on the same CPU, want a few (the probes)", perOp)
	}
}

// cpuShare is the share of its GOMAXPROCS CPUs this process gets right
// now: busy loops on every P for a few milliseconds, CPU time over wall
// time. Near 1 on an idle box (0.8 where the CPUs are hyperthreads of
// one core), near 1/2 when another process wants the same CPUs.
func cpuShare() float64 {
	procs := runtime.GOMAXPROCS(0)
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	start := time.Now()
	stop := start.Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	cpu := time.Duration(ru1.Utime.Nano()+ru1.Stime.Nano()) - time.Duration(ru0.Utime.Nano()+ru0.Stime.Nano())
	return float64(cpu) / float64(wall) / float64(procs)
}

// TestShmPollingKeepsOffThePark is the mirror of TestShmSharedCPU: an
// in-process server is a goroutine our yields hand the CPU to, so at
// depth 32 a stream that starts out polling must be able to stay out of
// the parked regime (where every op costs a park: a broken hit path
// reads 1.0 parks per op here). Two things make the bound loose and the
// test conditional. A server goroutine that did park sits in the
// netpoller, which the runtime polls only when a P runs out of
// goroutines — never while ours are yielding — so in-process every
// hiccup costs the stream a round of parks that a server in another
// process would not. And when another process competes for the CPUs
// (tier-1 runs packages in parallel) the server's thread is descheduled
// for milliseconds and parking IS the right regime: then there is
// nothing to assert yet. The test fails only after `attempts` runs in a
// row on an idle box; a busy one starts the count again once the
// competition has passed, and the test skips if the box stays that busy
// for busyWait. It runs alone in the memnode-shm CI job.
func TestShmPollingKeepsOffThePark(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the server goroutine past any yield budget")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: an in-process server parked in the netpoller is only woken once every goroutine has parked")
	}
	const lanes, total, attempts = 32, 20000, 5
	srv, setup := newShmPair(t, 64<<20)
	id, err := setup.Register(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the region through another connection, so that no stream
	// under test waits out a first-touch page fault.
	if fails := runShmReads(setup, id, 4, 4096); fails != 0 {
		t.Fatalf("%d warm-up reads failed", fails)
	}
	const busyWait = 10 * time.Second
	busyUntil := time.Now().Add(busyWait)
	for i := 1; ; {
		opts := DefaultOptions()
		opts.Transport = TransportShm
		c, err := DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fails := runShmReads(c, id, lanes, total)
		m := c.Metrics()
		_ = c.Close()
		if fails != 0 {
			t.Fatalf("%d of %d reads failed", fails, total)
		}
		parks := float64(m.ShmParks) / total
		t.Logf("attempt %d: %.4f parks, %.4f doorbells, %.2f wasted yields per op",
			i, parks, float64(m.ShmDoorbells)/total, float64(m.ShmSpinYields)/total)
		if parks < 0.25 {
			return
		}
		if share := cpuShare(); share < 0.65 {
			if time.Now().After(busyUntil) {
				t.Skipf("this process gets %.0f%% of its CPUs: too busy a box to hold the polling regime for %v", share*100, busyWait)
			}
			time.Sleep(250 * time.Millisecond)
			i = 1
			continue
		}
		if i == attempts {
			t.Fatalf("%.2f parks per op at depth %d in-process on an idle box, want a polling stream", parks, lanes)
		}
		i++
	}
}
