package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A request-reply workload lets each vCPU go idle thousands of times a
// second. On the sandbox's hypervisor a halted vCPU is given to someone
// else, and every wake-up waits to get it back: /proc/stat showed 10-40 %
// of CPU time stolen during a pass that did no disk I/O, against 2-5 % for
// two pure spinners, and throughput moved by a factor of two from run to
// run. So the benchmark keeps the vCPUs awake the way idle=poll does on
// real hardware: one child per CPU, pinned to it, spinning under SCHED_IDLE,
// the policy that runs only when nothing else wants the CPU and yields to
// whatever wakes. With them, five runs in a row had 0.4-2.6 % stolen and
// throughput within 5 %.

const keepAwakeArg = "-keep-awake"

const schedIdle = 5 // SCHED_IDLE of <sched.h>

// keepAwake starts the spinners and returns what stops them and waits for
// them. A spinner that cannot be started is reported and done without.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no spinners:", err)
		return func() {}
	}
	var cmds []*exec.Cmd
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, keepAwakeArg, strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		// the child dies with this process, however this process dies
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: no spinner for cpu", cpu, ":", err)
			continue
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
}

// spin is the child: pin to one CPU, drop to SCHED_IDLE, never return.
func spin(cpuArg string) {
	cpu, err := strconv.Atoi(cpuArg)
	if err != nil || cpu < 0 || cpu >= 1024 {
		fmt.Fprintln(os.Stderr, "benchmark: bad cpu", cpuArg)
		os.Exit(2)
	}
	runtime.LockOSThread()
	var mask [1024 / 64]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: spinner: sched_setaffinity:", errno)
		os.Exit(1)
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// without the policy a spinner would take half a CPU from the
		// daemon: better none
		fmt.Fprintln(os.Stderr, "benchmark: spinner: sched_setscheduler:", errno)
		os.Exit(1)
	}
	for {
	}
}
