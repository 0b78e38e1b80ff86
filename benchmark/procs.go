package main

import (
	"bytes"
	"context"
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

// Process hygiene for the programs under test: every child runs in its
// own process group with stderr captured to a log file, is tracked until
// reaped, and is killed (group-wide) on failure, timeout or interrupt.

// opDeadline bounds one request or one CLI invocation: a hang is a failed
// op, not a stuck run.
const opDeadline = 30 * time.Second

// env is where one benchmark invocation keeps its files.
type env struct {
	root string // repository checkout (holds go.mod and cmd/)
	host string // hostInfo, taken once
	bin  string // built programs
	out  string // child logs and traces (benchmark/out)
	tmp  string // scenario files; removed at exit
}

// programs are the binaries the suite drives, built from ./cmd/<name>.
var programs = []string{"netupdate", "netupdated", "netupdatelb"}

// newEnv locates the checkout (the parent of this package's directory),
// prepares the output directories, and builds the programs. Builds are
// never timed.
func newEnv() (*env, error) {
	root, err := checkoutRoot()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "netupdated")); err != nil {
		return nil, fmt.Errorf("no netupdate checkout at %s (run from the repository root or benchmark/): %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root: root,
		host: hostInfo(root),
		bin:  filepath.Join(build, "bin"),
		out:  filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{e.bin, e.out, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building %v: %w\n%s", programs, err, out)
	}
	return e, nil
}

// checkoutRoot is the working directory, or its parent when started from
// inside benchmark/ (go run -C benchmark, go test).
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err == nil && filepath.Base(wd) == "benchmark" {
		wd = filepath.Dir(wd)
	}
	return wd, err
}

func (e *env) close() { os.RemoveAll(e.tmp) }

func (e *env) program(name string) string { return filepath.Join(e.bin, name) }

// children tracks every live child so an interrupt or a failed pass can
// kill them all.
var children = struct {
	sync.Mutex
	live map[*child]bool
}{live: map[*child]bool{}}

// killChildren kills every tracked process group and waits for each
// process to be reaped. Safe to call at any time, from any goroutine.
func killChildren() {
	children.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// liveChildren is the number of started, not yet reaped children.
func liveChildren() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

// child is one started program.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result; read after done
}

// start launches a program in its own process group with stderr (and
// stdout, unless stdout is non-nil) appended to logPath.
func start(logPath string, stdout *bytes.Buffer, prog string, args ...string) (*child, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(prog, args...)
	cmd.Stderr = log
	cmd.Stdout = log
	if stdout != nil {
		cmd.Stdout = stdout
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{name: filepath.Base(prog), cmd: cmd, log: log, done: make(chan struct{})}
	children.Lock()
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = cmd.Wait()
		log.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child's process group and waits until it is reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
}

// stop asks the child to exit (SIGTERM) and escalates to kill when it
// has not within the grace period.
func (c *child) stop() {
	_ = syscall.Kill(-c.pid(), syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// wait blocks until the child exits or the deadline passes (then it is
// killed and an error returned), and returns the child's peak resident
// set in MB, polled from /proc while it ran. ru_maxrss cannot be used for
// that: Go starts children with vfork semantics, and at exec Linux folds
// the old address space's high-water mark, which is this benchmark's,
// into the child's rusage, so every child would report at least the
// benchmark's own size.
func (c *child) wait(d time.Duration) (peakRSSMB float64, err error) {
	deadline := time.After(d)
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		// VmHWM only grows, so the last reading before exit is the peak
		// (short of the final two milliseconds); the first is taken at
		// once so that even a child that is gone by the first tick has one.
		if v, perr := procPeakRSSMB(c.pid()); perr == nil {
			peakRSSMB = v
		}
		select {
		case <-c.done:
			return peakRSSMB, c.err
		case <-deadline:
			c.kill()
			return peakRSSMB, fmt.Errorf("%s: no exit within %v, killed", c.name, d)
		case <-poll.C:
		}
	}
}

// cpuSeconds is the user+sys CPU time of a reaped child.
func (c *child) cpuSeconds() float64 {
	ps := c.cmd.ProcessState
	return ps.UserTime().Seconds() + ps.SystemTime().Seconds()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTick = 100

// procCPUSeconds reads a live process's user+sys CPU time (all threads)
// from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are positional
	// only after its closing parenthesis. utime and stime are fields 14
	// and 15, i.e. 11 and 12 after the state field.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected CPU fields %q %q", pid, f[11], f[12])
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM) from
// /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPUSeconds is the load generator's own user+sys CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freeAddr picks a loopback port that was free a moment ago. Another
// process can still take it before the child binds, so callers retry.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches a listening program on a fresh loopback port and
// waits for /healthz, retrying with another port when the child dies
// first (lost the bind race). args must not contain -addr.
func startServer(logPath, prog string, args func(addr string) []string) (*child, string, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		c, err := start(logPath, nil, prog, args(addr)...)
		if err != nil {
			return nil, "", err
		}
		if lastErr = awaitHealthy(c, "http://"+addr); lastErr == nil {
			return c, "http://" + addr, nil
		}
		c.kill()
	}
	return nil, "", fmt.Errorf("%s: not healthy after 5 ports: %w", filepath.Base(prog), lastErr)
}

func awaitHealthy(c *child, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("exited before serving: %v", c.err)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no /healthz answer within 10s")
}
