package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Every workload runs with the harness and every daemon it spawns
// confined to ONE CPU. On the reference box (two vCPUs of a
// shared host) a request that crosses vCPUs wakes a halted vCPU through
// the hypervisor, and how long that takes is the host's business: with
// the stack spread over both vCPUs the rate of one 250 ms slice differs
// from the next by 20-30 %; on one CPU, where a thread hands over to
// the next without the hypervisor, by 4-6 %. What is measured is then
// the CPU time the whole path of an op costs, context switches
// included; what is given up is parallel speed-up and lock contention,
// which this box cannot measure steadily anyway. README.md has the
// numbers.

// pinEnv marks a harness process that has confined itself, and names
// the CPU.
const pinEnv = "MAGE_BENCH_CPU"

// pinnedCPU is the CPU this process is confined to, -1 when it is not.
func pinnedCPU() int {
	if cpu, err := strconv.Atoi(os.Getenv(pinEnv)); err == nil {
		return cpu
	}
	return -1
}

// cpuMask holds 1024 CPUs, the kernel's own default limit.
type cpuMask [16]uint64

// confineToOneCPU narrows this thread's affinity to the last CPU it may
// run on and re-executes the harness there, so that the Go runtime
// starts with one CPU (GOMAXPROCS 1) and every thread and child process
// inherits the mask; the daemons size their own GOMAXPROCS the same
// way. The last CPU, not the first: interrupts and the rest of the box
// gather on CPU 0. It returns only on error, or at once in a process
// that is already confined.
func confineToOneCPU() error {
	if pinnedCPU() >= 0 {
		return nil
	}
	runtime.LockOSThread()
	var have cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(have), uintptr(unsafe.Pointer(&have))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
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
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	var want cpuMask
	want[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(want), uintptr(unsafe.Pointer(&want))); e != 0 {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, e)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), pinEnv+"="+strconv.Itoa(cpu))
	return fmt.Errorf("exec %s: %w", self, syscall.Exec(self, os.Args, env))
}
