package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Keep-awake. On a virtual machine a vCPU that halts has to be scheduled
// again by the host before the guest can run anything on it, and on a busy
// host that wait dwarfs what is being measured: with one shard goroutine
// busy and 64 clients waking for microseconds at a time, tiered_faults
// lost 25-50% of the box's CPU time to steal (/proc/stat) and its
// half-second throughput ranged 236-959; with the vCPUs kept from halting
// steal fell under 5% and the same slices read 941-1428. So while a
// workload is measured, one child process per CPU spins under SCHED_IDLE:
// the guest kernel runs it only when nothing else is runnable and preempts
// it the moment anything is, its CPU time is the child's, not this
// process's, and the vCPUs never halt. Where the policy cannot be set the
// benchmark runs without it.

const (
	awakeArg   = "-keep-awake-child"
	schedIdle  = 5 // SCHED_IDLE in <linux/sched.h>
	awakeCheck = 50 * time.Millisecond
)

// keepAwake starts the spinners and returns the function that stops them
// and waits until each has ended.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var kids []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, awakeArg)
		// However this process ends, the kernel ends the spinner with it;
		// the spinner's own watch on its parent covers the case the signal
		// cannot (the starting thread retiring early).
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: keep-awake child not started: %v\n", err)
			break
		}
		kids = append(kids, c)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, c := range kids {
				c.Process.Kill() // an error means it has exited already
			}
			for _, c := range kids {
				c.Wait() // killed: the error is the signal
			}
		})
	}
}

// awakeChild is the spinner: it drops to SCHED_IDLE and spins until its
// parent is gone (it is killed before that when the run ends in order).
func awakeChild() int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	param := struct{ priority int32 }{}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintf(os.Stderr, "bench: keep-awake child: SCHED_IDLE refused (%v); exiting\n", errno)
		return 1
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for t0 := time.Now(); time.Since(t0) < awakeCheck; {
		}
	}
	return 0
}
