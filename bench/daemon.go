package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one spawned server process: gpad — each (workload, round)
// gets a fresh one, so no workload can pollute another's LRUs — or the
// reference server (ref.go), one per run.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	pid     int
	readyMs float64
	stderr  bytes.Buffer
	exited  chan struct{}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so startDaemon retries on the rare race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// gpadArgs is gpad's command line over storeDir (maxQueue 0 keeps the
// default queue).
func gpadArgs(storeDir string, maxQueue int) func(addr string) []string {
	return func(addr string) []string {
		args := []string{"-addr", addr, "-workers", strconv.Itoa(workers), "-log-level", "error", "-store-dir", storeDir}
		if maxQueue != 0 {
			args = append(args, "-max-queue", strconv.Itoa(maxQueue))
		}
		return args
	}
}

// refArgs is the command line that turns this binary into the reference
// server.
func refArgs(addr string) []string { return []string{"-ref-server", addr} }

// startDaemon spawns bin on a free loopback port with the arguments args
// makes for that address, and waits until /healthz answers 200.
func startDaemon(ctx context.Context, bin string, args func(addr string) []string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startOnce(ctx, bin, args)
		if err == nil {
			return d, nil
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

func startOnce(ctx context.Context, bin string, args func(addr string) []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	name := filepath.Base(bin)
	d := &daemon{cmd: exec.Command(bin, args(addr)...), base: "http://" + addr, exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	// The child dies with the benchmark even if the benchmark is killed
	// outright and never reaches stop.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d.pid = d.cmd.Process.Pid
	go func() {
		_ = d.cmd.Wait() // the exit status of a daemon we signal ourselves carries nothing
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(10 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // body is discarded; only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyMs = float64(time.Since(start)) / float64(time.Millisecond)
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before it was ready: %s", name, d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not ready after 10s: %s", name, d.stderr.String())
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it lingers, and
// returns once the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process is already gone
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// snapshot is one scrape of gpad's outside surfaces.
type snapshot struct {
	// statsz holds every numeric /statsz field; tenant counters appear
	// as "tenants.<id>.<field>".
	statsz map[string]float64
	// metrics holds every /metrics sample keyed by its series text
	// (`name{labels}`).
	metrics map[string]float64
	// cpuTicks is utime+stime from /proc/<pid>/stat, in clock ticks.
	cpuTicks float64
	// hwmKB is VmHWM from /proc/<pid>/status.
	hwmKB float64
	// scrapeUs is how long the /metrics GET took.
	scrapeUs float64
	// hostSteal and hostTotal are the box's stolen and total CPU ticks
	// from the first line of /proc/stat: time the hypervisor gave to
	// another guest while this one wanted to run.
	hostSteal, hostTotal float64
}

// clockTick is the kernel's USER_HZ; 100 on every Linux build this
// benchmark targets (reading it portably needs cgo).
const clockTick = 100

func (d *daemon) scrape(ctx context.Context, c *http.Client) (*snapshot, error) {
	s := &snapshot{statsz: map[string]float64{}, metrics: map[string]float64{}}

	body, err := get(ctx, c, d.base+"/statsz")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	flatten("", raw, s.statsz)

	start := time.Now()
	body, err = get(ctx, c, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	s.scrapeUs = float64(time.Since(start)) / float64(time.Microsecond)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			s.metrics[line[:cut]] = v
		}
	}

	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return nil, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
		f := strings.Fields(string(stat[i+1:]))
		if len(f) > 12 {
			u, _ := strconv.ParseFloat(f[11], 64)
			k, _ := strconv.ParseFloat(f[12], 64)
			s.cpuTicks = u + k
		}
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	if stat, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(stat), "\n")
		for i, f := range strings.Fields(line) {
			v, _ := strconv.ParseFloat(f, 64)
			if i >= 1 && i <= 8 {
				s.hostTotal += v
			}
			if i == 8 {
				s.hostSteal = v
			}
		}
	}
	return s, nil
}

func flatten(prefix string, in map[string]any, out map[string]float64) {
	for k, v := range in {
		switch v := v.(type) {
		case float64:
			out[prefix+k] = v
		case map[string]any:
			flatten(prefix+k+".", v, out)
		}
	}
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// sumMetrics adds every /metrics sample whose series starts with prefix
// and whose label text contains every given fragment.
func (s *snapshot) sumMetrics(prefix string, fragments ...string) float64 {
	var t float64
next:
	for series, v := range s.metrics {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(series, f) {
				continue next
			}
		}
		t += v
	}
	return t
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file that vanished mid-walk just is not counted
	})
	return float64(total) / (1 << 20)
}
