package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running avstored child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	flags  []string
	log    *os.File
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// live tracks every child and store directory of the process, so that a
// failure or a signal anywhere leaves no avstored and no store behind.
var live struct {
	sync.Mutex
	daemons map[*daemon]bool
	dirs    map[string]bool
}

func trackDir(dir string) {
	live.Lock()
	defer live.Unlock()
	if live.dirs == nil {
		live.dirs = make(map[string]bool)
	}
	live.dirs[dir] = true
}

func removeDir(dir string) {
	_ = os.RemoveAll(dir)
	live.Lock()
	defer live.Unlock()
	delete(live.dirs, dir)
}

// cleanupAll kills what is still running and removes what is still on
// disk. A run that ended well has nothing left for it to do.
func cleanupAll() {
	live.Lock()
	daemons, dirs := live.daemons, live.dirs
	live.daemons, live.dirs = nil, nil
	live.Unlock()
	for d := range daemons {
		_ = d.cmd.Process.Kill()
		<-d.exited
		_ = d.log.Close()
	}
	for dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// freePort asks the kernel for an unused loopback port. The daemon does
// not report an ephemeral port of its own, so the benchmark picks one.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs avstored on the store and returns once /readyz
// answers 200, with the time from exec to that answer. The daemon runs
// with its defaults; cacheBytes > 0 is the one flag a workload may set.
func startDaemon(bin, storeDir string, cacheBytes int64, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := []string{"-store", storeDir, "-addr", addr}
	if cacheBytes > 0 {
		flags = append(flags, "-cache-bytes", strconv.FormatInt(cacheBytes, 10))
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: exec.Command(bin, flags...), url: "http://" + addr, flags: flags, log: logFile, exited: make(chan struct{})}
	d.cmd.Stderr = logFile
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		_ = logFile.Close()
		return nil, 0, fmt.Errorf("start avstored: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	live.Lock()
	if live.daemons == nil {
		live.daemons = make(map[*daemon]bool)
	}
	live.daemons[d] = true
	live.Unlock()

	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, 0, fmt.Errorf("avstored exited before it was ready: %v (see %s)", d.err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("avstored not ready after 30s (see %s)", logPath)
		}
	}
}

func (d *daemon) forget() {
	_ = d.log.Close()
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.forget()
}

// stop sends SIGINT and requires the graceful exit status 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		d.kill()
		return fmt.Errorf("signal avstored: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(90 * time.Second):
		d.kill()
		return errors.New("avstored did not exit within 90s of SIGINT")
	}
	d.forget()
	if d.err != nil {
		return fmt.Errorf("avstored exit after SIGINT: %w", d.err)
	}
	return nil
}

// cpuTicks is the daemon's utime+stime from /proc/<pid>/stat, in clock
// ticks (clockTick per second).
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// the command name may hold spaces; fields are counted after its ")"
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	return utime + stime, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture Go
// supports.
const clockTick = 100

// rssPeakMiB is the daemon's VmHWM.
func (d *daemon) rssPeakMiB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// rejected429 reads the daemon's in-flight rejection counter off /metrics.
func (d *daemon) rejected429() (float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "avstored_requests_rejected_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("no avstored_requests_rejected_total in /metrics")
}
