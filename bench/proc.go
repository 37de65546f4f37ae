package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one subprocess of the system under test (pytfhed, a
// pytfhe-worker, or the compile child). Its output is kept in memory and
// written under bench/out/ only when the workload fails.
type child struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
	done chan struct{} // closed once Wait has returned
	err  error
}

// children tracks every subprocess so that any exit path can stop them all.
type children struct {
	mu    sync.Mutex
	procs []*child
}

// start launches bin. The child is killed by the kernel if the benchmark dies
// without cleaning up (Pdeathsig), and by stopAll on every ordinary exit path.
func (cs *children) start(name, bin string, stdin []byte, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = &c.out
	if stdin != nil {
		c.cmd.Stdin = bytes.NewReader(stdin)
	}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	cs.mu.Lock()
	cs.procs = append(cs.procs, c)
	cs.mu.Unlock()
	return c, nil
}

// wait blocks until the child has exited, killing it after grace.
func (c *child) wait(grace time.Duration) error {
	select {
	case <-c.done:
		return c.err
	case <-time.After(grace):
		_ = c.cmd.Process.Kill() // it is being discarded; the wait below reports the outcome
		<-c.done
		return fmt.Errorf("%s: did not exit within %v, killed", c.name, grace)
	}
}

// maxRSSMB is the child's peak resident set; valid after wait.
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stopAll kills every child still running and waits until each has ended.
func (cs *children) stopAll() {
	cs.mu.Lock()
	procs := append([]*child(nil), cs.procs...)
	cs.mu.Unlock()
	for _, c := range procs {
		select {
		case <-c.done:
		default:
			_ = c.cmd.Process.Kill() // already-exited is the only failure and is fine
		}
	}
	for _, c := range procs {
		<-c.done
	}
}

// dumpOutput saves every child's captured output next to the results, so a
// failed workload can be diagnosed after the temp dir is gone.
func (cs *children) dumpOutput(dir, workload string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, c := range cs.procs {
		if c.out.Len() == 0 {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.stderr", workload, c.name, i))
		if err := os.WriteFile(path, c.out.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
}

// waitAddrFile polls for the address a daemon writes once it is listening.
func waitAddrFile(path string, c *child, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(data)); addr != "" {
				return addr, nil
			}
		}
		select {
		case <-c.done:
			return "", fmt.Errorf("%s exited before listening: %v", c.name, c.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("%s: no address in %s after %v", c.name, path, timeout)
}

// selfMaxRSSMB is this process's peak resident set so far.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
