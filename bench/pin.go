package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 processors.
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// first returns the lowest processor in the mask.
func (m *cpuMask) first() int {
	for i, w := range m {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// pinToOneCPU confines the process to the lowest-numbered processor it may
// run on, and returns that processor.
//
// On a small virtual machine the decision loop's goroutine hand-offs
// (phase pools, the write queue) turn into cross-processor wake-ups whose
// cost depends on where the kernel happened to place the threads: runs of
// one binary then fall into two modes 20-60 % apart, which no statistic
// inside a run can average away. On one processor the same code runs in
// the same wall time and has one mode left to fall into, the state of the
// host, which probe.go deals with; so that is where the benchmark measures
// it. The pipeline keeps its shipped worker counts; GOMAXPROCS follows the
// processors available, as it does by default.
//
// The Go runtime sizes itself and starts threads before main runs, so the
// process narrows the affinity of its main thread and re-executes itself;
// the new image, and every process it starts, inherits the mask.
func pinToOneCPU() (int, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := mask.first()
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty processor mask")
	}
	if mask.count() == 1 {
		return cpu, nil
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return 0, fmt.Errorf("sched_setaffinity to processor %d: %w", cpu, errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	return 0, syscall.Exec(exe, os.Args, os.Environ())
}
