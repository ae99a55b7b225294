//go:build linux

package memnode

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// shmHelperServer serves shm, printing the CPU time it has used, in
// nanoseconds, for every line it reads, until its stdin closes.
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
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			break // EOF: the test is done with us
		}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		fmt.Println("CPU", ru.Utime.Nano()+ru.Stime.Nano())
	}
	_ = srv.Close()
	return 0
}

// shmHelperClient runs reads and writes at depth MEMNODE_SHM_DEPTH over
// a required file link and prints what it did and what the server's
// STAT counted of it.
func shmHelperClient() int {
	const ops = 50000
	depth, err := strconv.Atoi(os.Getenv("MEMNODE_SHM_DEPTH"))
	if err != nil || depth < 1 {
		fmt.Println("ERR depth", os.Getenv("MEMNODE_SHM_DEPTH"))
		return 1
	}
	opts := DefaultOptions()
	opts.Transport = TransportShm
	c, err := DialOptions(os.Getenv("MEMNODE_SHM_ADDR"), opts)
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	defer c.Close()
	id, err := c.Register(16 << 20)
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	before, err := c.Stat()
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	if fails := runPageOps(c, id, depth, ops); fails != 0 {
		fmt.Println("ERR", fails, "page ops failed")
		return 1
	}
	after, err := c.Stat()
	if err != nil {
		fmt.Println("ERR", err)
		return 1
	}
	m := c.Metrics()
	fmt.Printf("RESULT %s %d %d %d %d %d %d\n", c.TransportKind(), ops, runtime.GOMAXPROCS(0),
		after.ReadOps-before.ReadOps, after.WriteOps-before.WriteOps, m.Retries, m.Reconnects)
	return 0
}

// runPageOps runs total one-page ops on id from lanes goroutines, reads
// and writes taking turns, and returns how many failed.
func runPageOps(c *Client, id uint64, lanes, total int) uint64 {
	var next atomic.Int64
	var fails atomic.Uint64
	var wg sync.WaitGroup
	page := make([]byte, 4096)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(total); i = next.Add(1) - 1 {
				off := (i % 4096) * 4096
				if i%2 == 1 {
					if err := c.Write(id, off, page); err != nil {
						fails.Add(1)
					}
					continue
				}
				body, err := c.Read(id, off, 4096)
				if err != nil {
					fails.Add(1)
					continue
				}
				PutBuf(body)
			}
		}()
	}
	wg.Wait()
	return fails.Load()
}

// cpuMask holds 1024 CPUs, the kernel's own default limit.
type cpuMask [16]uint64

func schedAffinity(nr uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// TestShmSharedCPU runs a memnode and a client as two processes on ONE
// CPU, at depth 1 and at depth 8, where the ring this link replaced had
// to hand the CPU to the server for every op. The file link's memnode is
// passive: its page verbs run in the client, so the server spends no
// CPU on them (a TCP node spends microseconds per op), and yet its STAT
// counts each one, off the counter page the client process bumps. Every
// op must also succeed without a retry. Asserted on counts and on the
// server's CPU time, a cost here, never on wall time.
func TestShmSharedCPU(t *testing.T) {
	if !ShmSupported {
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
	serverCPU := func() time.Duration {
		if _, err := fmt.Fprintln(srvIn); err != nil {
			t.Fatal(err)
		}
		ns, err := strconv.ParseInt(line(srvOut, "server helper")[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(ns)
	}
	for _, depth := range []int{1, 8} {
		cli, cliOut := helper("client", "MEMNODE_SHM_ADDR="+addr, "MEMNODE_SHM_DEPTH="+strconv.Itoa(depth))
		cpu0 := serverCPU()
		if err := cli.Start(); err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(2*time.Minute, func() { _ = cli.Process.Kill() })
		f := line(cliOut, "client helper")
		timer.Stop()
		_ = cli.Wait()
		spent := serverCPU() - cpu0
		var kind string
		var ops, procs, reads, writes, retries, reconnects uint64
		if _, err := fmt.Sscan(strings.Join(f[1:], " "), &kind, &ops, &procs, &reads, &writes, &retries, &reconnects); err != nil {
			t.Fatalf("client helper result %q: %v", f, err)
		}
		perOp := float64(spent.Nanoseconds()) / 1e3 / float64(ops)
		t.Logf("CPU %d, GOMAXPROCS %d, depth %d: %d ops, STAT counted %d reads and %d writes, the server spent %v (%.3f µs per op)",
			cpu, procs, depth, ops, reads, writes, spent, perOp)
		if kind != "shm" {
			t.Fatalf("client ran over %q, want shm", kind)
		}
		if procs != 1 {
			t.Fatalf("client helper came up with GOMAXPROCS %d: it is not confined to one CPU", procs)
		}
		if retries != 0 || reconnects != 0 {
			t.Errorf("depth %d: %d retries, %d reconnects", depth, retries, reconnects)
		}
		if reads != ops/2 || writes != ops/2 {
			t.Errorf("depth %d: STAT counted %d reads and %d writes of %d ops, want %d each", depth, reads, writes, ops, ops/2)
		}
		// The session setup (HELLO, REGISTER, attach, two STATs) costs the
		// server a few milliseconds; 0.5 µs per op is 25 ms.
		if perOp > 0.5 {
			t.Errorf("depth %d: the server spent %.3f µs of CPU per op: it is on the data path", depth, perOp)
		}
	}
}
