package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// proc is one serving process the benchmark started.
type proc struct {
	name  string // e.g. loadctld-0
	proxy bool   // the routing tier rather than a transaction server
	addr  string
	spans string // span file the traced harness writes on exit ("" = untraced)
	log   string // file holding the process's standard error
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has ended and been reaped
	err   error         // how it ended (cmd.Wait), valid once done is closed
}

// errPortTaken marks a process that could not bind the port chosen for
// it: something else on the machine took the port between the choice and
// the bind. The launch is then retried on new ports.
var errPortTaken = errors.New("listen port taken before the process bound it")

// exited is nil while p runs, and once it has ended says how, with the
// end of its log.
func (p *proc) exited() error {
	select {
	case <-p.done:
	default:
		return nil
	}
	tail := p.logTail()
	if strings.Contains(tail, "address already in use") {
		return fmt.Errorf("%s: %w: %v\n%s", p.name, errPortTaken, p.err, tail)
	}
	return fmt.Errorf("%s exited (%v)\n%s", p.name, p.err, tail)
}

// logTail is the end of p's standard error, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// stack is the set of processes one workload runs, and the address the
// generator talks to.
type stack struct {
	procs []*proc
	entry string
}

// alive is nil while every process of the stack runs, else it says which
// one ended and how.
func (st *stack) alive() error {
	for _, p := range st.procs {
		if err := p.exited(); err != nil {
			return err
		}
	}
	return nil
}

// launchOpts says how to start a workload's processes.
type launchOpts struct {
	bin    string // directory with loadctld, loadctlproxy and tracedsrv
	work   string // directory for span files
	seed   int64
	nproc  int
	traced bool // start the traced harness instead of the real binaries
}

// setupClient serves the readiness probes, the first transactions and
// the /metrics scrapes; it is not the generator and its connections are
// not counted. Its timeout leaves room for a stall of the shared host.
var setupClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// launchAttempts bounds the launches tried when a chosen port is taken
// before a process binds it.
const launchAttempts = 3

// launch starts wl's processes and returns once every one answers
// /healthz with 200 and one transaction of each shape has committed
// through the entry point. The duration it returns covers exactly that:
// process start, initialisation and the lazy work of a first request. A
// launch that lost one of its ports to another socket is stopped and
// tried again on new ports; any other failure ends the run.
func launch(wl workload, o launchOpts) (*stack, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		st, d, err := launchOnce(wl, o)
		if err == nil || !errors.Is(err, errPortTaken) || attempt == launchAttempts {
			return st, d, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: launch %d of %d lost a port, retrying: %v\n", attempt, launchAttempts, err)
	}
}

func launchOnce(wl workload, o launchOpts) (*stack, time.Duration, error) {
	st := &stack{}
	start := time.Now()
	n := wl.backends
	if wl.proxied {
		n++
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, 0, err
	}
	backends := addrs[:wl.backends]
	for i, addr := range backends {
		args := []string{"-addr", addr, "-items", strconv.Itoa(wl.items), "-seed", strconv.FormatInt(o.seed, 10)}
		args = append(args, wl.serverArgs...)
		p := &proc{name: fmt.Sprintf("loadctld-%d", i), addr: addr}
		if o.traced {
			p.spans = filepath.Join(o.work, p.name+".spans")
			args = append([]string{"-mode", "server", "-spans", p.spans}, args...)
		}
		if err := st.start(p, o, "loadctld", args); err != nil {
			return nil, 0, err
		}
	}
	st.entry = backends[0]
	if wl.proxied {
		addr := addrs[wl.backends]
		args := []string{"-addr", addr, "-backends", strings.Join(backends, ",")}
		p := &proc{name: "loadctlproxy", proxy: true, addr: addr}
		if o.traced {
			p.spans = filepath.Join(o.work, p.name+".spans")
			args = append([]string{"-mode", "proxy", "-spans", p.spans}, args...)
		}
		if err := st.start(p, o, "loadctlproxy", args); err != nil {
			return nil, 0, err
		}
		st.entry = addr
	}
	if err := st.ready(wl); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func (st *stack) start(p *proc, o launchOpts, binary string, args []string) error {
	if o.traced {
		binary = "tracedsrv"
	}
	p.log = filepath.Join(o.work, p.name+".log")
	logf, err := os.Create(p.log)
	if err != nil {
		st.stop()
		return err
	}
	defer logf.Close()
	p.cmd = exec.Command(filepath.Join(o.bin, binary), args...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.nproc))
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		st.stop()
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.done = make(chan struct{})
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	st.procs = append(st.procs, p)
	return nil
}

// ready polls every process's /healthz, then commits one transaction of
// each of wl's shapes through the entry point. A process that ends on the
// way fails it at once.
func (st *stack) ready(wl workload) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, p := range st.procs {
		for {
			if err := p.exited(); err != nil {
				return err
			}
			resp, err := setupClient.Get("http://" + p.addr + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy within 20s: %v\n%s", p.name, err, p.logTail())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, path := range wl.paths {
		resp, err := setupClient.Post("http://"+st.entry+path, "", nil)
		if err != nil {
			return fmt.Errorf("first transaction %s: %w", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, committedMark) {
			return fmt.Errorf("first transaction %s: %d %s %v", path, resp.StatusCode, body, err)
		}
	}
	// A process that lost its port while another answered on it would
	// pass the probes above.
	return st.alive()
}

// stop ends every process and waits for it. The real binaries are
// killed; the traced harness gets SIGTERM so it writes its spans first,
// and must then exit cleanly.
func (st *stack) stop() error {
	var errs []error
	for _, p := range st.procs {
		if p.spans != "" {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		} else {
			_ = p.cmd.Process.Kill()
		}
	}
	for _, p := range st.procs {
		select {
		case <-p.done:
			if p.spans != "" && p.err != nil {
				errs = append(errs, fmt.Errorf("%s: %w\n%s", p.name, p.err, p.logTail()))
			}
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("%s: did not exit within 30s of SIGTERM", p.name))
		}
	}
	st.procs = nil
	return errors.Join(errs...)
}

// servers and proxies split the stack by tier.
func (st *stack) servers() []*proc { return st.tier(false) }
func (st *stack) proxies() []*proc { return st.tier(true) }

func (st *stack) tier(proxy bool) []*proc {
	var out []*proc
	for _, p := range st.procs {
		if p.proxy == proxy {
			out = append(out, p)
		}
	}
	return out
}

// freeAddrs returns n loopback addresses with ports nothing listens on.
// Every port is held until all n are chosen, so no two are the same.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, fixed at
// 100 by the Linux ABI on the architectures Go supports there).
const clockTick = 10 * time.Millisecond

// cpuTime is the user plus system CPU time of pid ("self" for this
// process), summed over its threads.
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS is pid's VmHWM in bytes.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: VmHWM %q", pid, v)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

func pidOf(p *proc) string { return strconv.Itoa(p.cmd.Process.Pid) }

// sumCPU is the CPU time of procs, summed.
func sumCPU(procs []*proc) (time.Duration, error) {
	var t time.Duration
	for _, p := range procs {
		d, err := cpuTime(pidOf(p))
		if err != nil {
			return 0, err
		}
		t += d
	}
	return t, nil
}

// scrape reads one process's /metrics (Prometheus text) into a map keyed
// by the series as printed, labels included.
func scrape(p *proc) (map[string]float64, error) {
	resp, err := setupClient.Get("http://" + p.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	return out, nil
}
