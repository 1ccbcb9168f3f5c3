package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running kexserved process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once its stdout hits EOF
}

// startServer spawns kexserved with its default flags plus the three the
// benchmark must set, and returns once the server prints its bound
// address. No fixed port and no dial retries: the address comes from the
// "listening on" line.
func startServer(bin, dataDir string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-quiet")
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting kexserved: %w", err)
	}
	sp := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(sp.drained)
		br := bufio.NewReader(stdout)
		found := false
		for {
			line, err := br.ReadString('\n')
			if a, ok := listenAddr(line); ok && !found {
				found = true
				addrc <- a
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case sp.addr = <-addrc:
		return sp, nil
	case <-sp.drained:
		sp.kill()
		return nil, errors.New("kexserved exited before listening")
	case <-time.After(120 * time.Second):
		sp.kill()
		return nil, errors.New("kexserved did not print its address within 120s")
	}
}

// listenAddr extracts the bound address from kexserved's
// "kexserved: listening on ADDR (...)" line.
func listenAddr(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "kexserved: listening on ")
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, " ")
	addr = strings.TrimSpace(addr)
	return addr, addr != ""
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// kill SIGKILLs the server and waits until it has exited.
func (sp *serverProc) kill() {
	// An error here means the process already exited; Wait reaps it.
	_ = sp.cmd.Process.Kill()
	<-sp.drained
	// Wait reports the kill signal as an error; the exit is what we want.
	_ = sp.cmd.Wait()
}

// procCPU is a process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	// /proc reports in USER_HZ, which Linux fixes at 100 per second.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM is a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes reads the aggregate steal and total jiffies from /proc/stat.
func cpuTimes() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat layout")
	}
	for i, v := range fs[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9, 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
