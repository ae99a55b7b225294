package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"mage/internal/memnode"
)

// workDir is everything the harness leaves on disk, relative to the
// benchmark's directory (the harness chdirs there). It is short on
// purpose: the shm doorbell is a unix socket under it, and a socket
// path holds at most 108 bytes.
const workDir = ".work"

// checkoutRoot is the checkout the benchmark sits in: the parent of the
// working directory, which `go run -C bench .` makes bench/. Everything
// the harness and its daemons write is relative to bench/.
func checkoutRoot() (string, error) {
	b, _ := os.ReadFile(filepath.Join("..", "go.mod")) // unreadable: no module line
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "module mage" {
			return filepath.Abs("..")
		}
	}
	return "", errors.New("the working directory is not bench/ of a checkout of module mage: run as `go run -C bench .`")
}

// buildDaemons compiles cmd/magecache and cmd/memnode from the checkout
// the benchmark sits in. The binaries persist in workDir between runs;
// `go build` relinks only when a source changed, so a stale binary is
// never measured and an unchanged one costs a staleness check.
func buildDaemons(ctx context.Context, root string) (bins map[string]string, seconds float64, err error) {
	start := time.Now()
	bins = make(map[string]string)
	binDir, err := filepath.Abs(filepath.Join(workDir, "bin"))
	if err != nil {
		return nil, 0, err
	}
	for _, name := range []string{"magecache", "memnode"} {
		out := filepath.Join(binDir, name)
		cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, 0, fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, msg)
		}
		bins[name] = out
	}
	return bins, time.Since(start).Seconds(), nil
}

// daemon is one spawned process of the system under test. A daemon
// serves one run and is then killed: memnode does not reclaim regions
// on disconnect and magecache's slab layout drifts with every SET, so a
// reused daemon is a different program from a fresh one.
type daemon struct {
	name string
	cmd  *exec.Cmd

	mu    sync.Mutex
	lines []string // stdout and stderr, in arrival order

	exited  chan struct{} // closed once output is drained and Wait returned
	waitErr error
}

func startDaemon(name, bin, runDir string, args ...string) (*daemon, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	// memnode puts its shm doorbell socket in the temp directory.
	cmd.Env = append(os.Environ(), "TMPDIR="+runDir)
	// The kernel kills the daemon if the harness dies without running
	// its deferred stops (SIGKILL, a panic in another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
		}
		pr.Close()
		d.waitErr = cmd.Wait()
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// awaitLines polls the daemon's output until n lines match re and
// returns the first submatch of each.
func (d *daemon) awaitLines(ctx context.Context, re *regexp.Regexp, n int) ([]string, error) {
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		var got []string
		d.mu.Lock()
		for _, l := range d.lines {
			if m := re.FindStringSubmatch(l); m != nil {
				got = append(got, m[1])
			}
		}
		d.mu.Unlock()
		if len(got) >= n {
			return got[:n], nil
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before it was ready (%v):\n%s", d.name, d.waitErr, d.output())
		case <-deadline:
			return nil, fmt.Errorf("%s not ready after 20s:\n%s", d.name, d.output())
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// stop interrupts the daemon, kills it if it lingers, and returns only
// once the process has been waited for.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt) // already exited is fine
	select {
	case <-d.exited:
		return
	case <-time.After(2 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// stack is the set of daemons and harness-owned connections of one run.
// close tears all of it down; every exit path of a workload defers it.
type stack struct {
	runDir  string
	daemons []*daemon
	closers []func()
}

func newStack() (*stack, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "r")
	if err != nil {
		return nil, err
	}
	return &stack{runDir: dir}, nil
}

func (s *stack) onClose(f func()) { s.closers = append(s.closers, f) }

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].stop()
	}
	// Takes memnode-shm-*.sock with it when the daemon had to be killed.
	os.RemoveAll(s.runDir)
}

var (
	memnodeReady   = regexp.MustCompile(`memnode: serving \d+ MiB on (\S+)`)
	magecacheReady = regexp.MustCompile(`magecache: serving on (\S+)`)
)

// memnodes is a spawned memnode process (one or more nodes) with one
// harness-owned client per node for STAT.
type memnodes struct {
	d        *daemon
	addrs    []string
	statters []*memnode.Client
}

// spawnMemnode starts `memnode -nodes n` on free ports and waits until
// every node answers STAT.
func (s *stack) spawnMemnode(ctx context.Context, bin string, n int, capacityMB int, transport string) (*memnodes, error) {
	d, err := startDaemon("memnode", bin, s.runDir,
		"-listen", "127.0.0.1:0", "-nodes", fmt.Sprint(n),
		"-capacity-mb", fmt.Sprint(capacityMB), "-transport", transport)
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	addrs, err := d.awaitLines(ctx, memnodeReady, n)
	if err != nil {
		return nil, err
	}
	m := &memnodes{d: d, addrs: addrs}
	for _, a := range addrs {
		// The STAT connection stays on TCP whatever the daemon offers:
		// the transport under test belongs to the workload's own client.
		c, err := memnode.DialOptions(a, memnode.Options{Transport: memnode.TransportTCP})
		if err != nil {
			return nil, fmt.Errorf("dial memnode %s: %w", a, err)
		}
		s.onClose(func() { c.Close() })
		if _, err := c.Stat(); err != nil {
			return nil, fmt.Errorf("memnode %s: first STAT: %w", a, err)
		}
		m.statters = append(m.statters, c)
	}
	return m, nil
}

// stat sums STAT over the nodes.
func (m *memnodes) stat() (memnode.Stats, error) {
	var sum memnode.Stats
	for _, c := range m.statters {
		st, err := c.Stat()
		if err != nil {
			return sum, err
		}
		sum = addStat(sum, st)
	}
	return sum, nil
}

// clientEvents sums the robustness counters of the harness-owned
// clients.
func (m *memnodes) clientEvents() (retries, reconnects uint64) {
	for _, c := range m.statters {
		cs := c.Metrics()
		retries += cs.Retries
		reconnects += cs.Reconnects
	}
	return retries, reconnects
}

// spawnMagecache starts `magecache -mode serve` against a memnode and
// waits for its listening line.
func (s *stack) spawnMagecache(ctx context.Context, bin, memnodeAddr string, ratio int) (*daemon, string, error) {
	d, err := startDaemon("magecache", bin, s.runDir,
		"-mode", "serve", "-listen", "127.0.0.1:0", "-memnode", memnodeAddr,
		"-keys", fmt.Sprint(kvKeys), "-ratio", fmt.Sprint(ratio))
	if err != nil {
		return nil, "", err
	}
	s.daemons = append(s.daemons, d)
	addr, err := d.awaitLines(ctx, magecacheReady, 1)
	if err != nil {
		return nil, "", err
	}
	return d, addr[0], nil
}
