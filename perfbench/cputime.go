package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end timings are CPU time, not wall-clock time. On a VM of a
// shared host the hypervisor takes the CPUs away from the guest for
// stretches of seconds (steal time), and wall-clock figures of identical
// runs then differ by half. The kernel leaves stolen time out of a task's
// CPU time, so CPU time measures the program's own work. Wall-clock medians
// are still printed, in the context line.

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread only
)

// processCPU is the CPU time all threads of this process have used.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time the calling OS thread has used. It is only
// meaningful while the goroutine is locked to its thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// onThreadCPU runs f with the goroutine locked to its OS thread and returns
// the CPU time f used on that thread: its own work and the garbage
// collection it was made to assist with, but not the collector's background
// workers on other threads.
func onThreadCPU(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	f()
	return threadCPU() - start
}

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
