package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one tier of the system under test, running as gtnode.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// startProc launches gtnode and waits for its "READY <url>" line.
func startProc(bin, name string, args []string) (*proc, error) {
	cmd := exec.Command(filepath.Join(bin, "gtnode"), args...)
	cmd.Stderr = os.Stderr
	// The kernel kills the node if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				ready <- url
			}
		}
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case p.url = <-ready:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before it was ready", name)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s not ready after 60s", name)
	}
}

// stop asks the node to exit (it writes its spans first) and waits for
// it, killing it if it takes longer than 10 seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMB reads the node's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the CPU time the node's threads have run.
func (p *proc) cpuSeconds() float64 { return pidCPUSeconds(p.cmd.Process.Pid) }

// pidCPUSeconds sums /proc/<pid>/task/*/schedstat: the CPU time the
// process's threads have run. The kernel counts it without the time the
// hypervisor gave to other guests (steal), and the Go runtime keeps its
// threads, so a window's difference is the work the process did.
func pidCPUSeconds(pid int) float64 {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// topology is one primary, one streaming follower and the edge-cached
// router in front of them, each its own process, with the primary's and
// follower's WAL and snapshots under dir.
type topology struct {
	dir                       string
	primary, follower, router *proc
}

func (t *topology) procs() []*proc {
	var ps []*proc
	for _, p := range []*proc{t.router, t.follower, t.primary} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// startTopology boots the three tiers over the city datasets in
// dir/cities and waits until the follower streams every city.
func startTopology(bin, dir string, keys []string, trace bool) (*topology, error) {
	t := &topology{dir: dir}
	spans := func(name string) []string {
		if !trace {
			return nil
		}
		return []string{"-spans", filepath.Join(dir, name+".spans")}
	}
	shard := func(name string, extra ...string) (*proc, error) {
		snap := filepath.Join(dir, name)
		if err := os.MkdirAll(snap, 0o755); err != nil {
			return nil, err
		}
		args := append([]string{"-role", name, "-data-dir", filepath.Join(dir, "cities"),
			"-snapshot-dir", snap, "-preload", strings.Join(keys, ",")}, extra...)
		return startProc(bin, name, append(args, spans(name)...))
	}
	var err error
	if t.primary, err = shard("primary"); err != nil {
		return nil, err
	}
	if t.follower, err = shard("follower", "-follow", t.primary.url); err != nil {
		t.stop()
		return nil, err
	}
	if err := waitFollowing(t.follower.url, len(keys)); err != nil {
		t.stop()
		return nil, err
	}
	t.router, err = startProc(bin, "router", append([]string{"-role", "router",
		"-nodes", t.primary.url + "," + t.follower.url}, spans("router")...))
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// waitFollowing polls the follower's /healthz until every city reports
// a replication position.
func waitFollowing(url string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			Role   string `json:"role"`
			Cities map[string]struct {
				Replication *json.RawMessage `json:"replication"`
			} `json:"cities"`
		}
		if err := getJSON(http.DefaultClient, url+"/healthz", &h); err == nil {
			following := 0
			for _, c := range h.Cities {
				if c.Replication != nil {
					following++
				}
			}
			if h.Role == "follower" && following == n {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("follower did not start replicating every city within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rssMB sums the tiers' peak resident sets.
func (t *topology) rssMB() float64 {
	var total float64
	for _, p := range t.procs() {
		total += p.peakRSSMB()
	}
	return total
}

// cpuSeconds reads each tier's CPU time, by tier name.
func (t *topology) cpuSeconds() map[string]float64 {
	out := map[string]float64{}
	for _, p := range t.procs() {
		out[p.name] = p.cpuSeconds()
	}
	return out
}

// stop ends every tier, front first, and waits for each.
func (t *topology) stop() {
	for _, p := range t.procs() {
		p.stop()
	}
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
