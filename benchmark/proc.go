package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// selfCPUms is this process's user+system CPU time.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// pidCPUms is a running process's user+system CPU time, from
// /proc/<pid>/stat (fields 14 and 15).
func pidCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start at
	// the last ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 1000 / clockTicks, nil
}

// peakRSSmb is VmHWM, the peak resident set size, of a process ("self" or
// a pid) in MiB.
func peakRSSmb(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// buildServe builds jacobitool from the repository at root into bin.
func buildServe(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/jacobitool")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build jacobitool: %v\n%s", err, out)
	}
	return nil
}

// server is a `jacobitool serve -data` child process.
type server struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	drained chan struct{} // closed once the child's stdout is read to EOF
}

// startServer boots a durable server on a free loopback port and waits for
// it to print the address it listens on.
func startServer(bin, dataDir string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-data", dataDir, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jacobitool serve: %w", err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, after, ok := strings.Cut(sc.Text(), "batch-solve service on "); ok {
				addr <- strings.Fields(after)[0]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
	case <-time.After(30 * time.Second):
	}
	s.stop()
	return nil, errors.New("jacobitool serve did not report its address")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it has not within
// ten seconds, and waits for it.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("jacobitool serve: %w", err)
	}
	return nil
}
