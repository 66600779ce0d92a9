// Perfbench is the repository's end-to-end benchmark. It starts the real
// loadctld (and, for proxied-small, loadctlproxy) binaries, drives them
// over loopback TCP from this one process with a closed loop of
// keep-alive clients, checks that every answer and counter agrees, and
// prints the end-to-end metrics. With -trace 1 it instead attributes time
// to layers: an untraced pass over the real binaries gives the counters
// and CPU split, and a pass over the traced harness (./tracedsrv) gives
// the spans. See NOTES.md for the workloads and what each one loads.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload small-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tpctl/loadctl/perfbench/span"
)

const (
	// clients is the closed loop's population, and the most connections
	// the generator may dial.
	clients = 2
	// warmup runs before every timed phase, on the same connections.
	warmup = 500 * time.Millisecond
	// launches is how many times an untraced run starts the stack and
	// measures it; the measured time is split evenly over them.
	launches = 15
	// setupSamples is how many launches an untraced run times for
	// setup_s: before the measured launches it starts and stops the stack
	// as many more times as make up this number. A set-up takes
	// milliseconds, so one sample is at the mercy of the scheduler.
	setupSamples = 21
	// window is the nominal length of the slices the timed phase is cut
	// into (shorter phases get one slice); throughput,
	// latency quantiles and CPU per transaction are medians over windows,
	// so a burst of interference from outside the benchmark moves them
	// less than it moves a whole-run figure.
	window = time.Second
	// scheduleLen is the per-client length of the drawn shape sequence.
	scheduleLen = 1 << 16
)

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name       string
	proxied    bool     // route through loadctlproxy
	backends   int      // loadctld processes
	items      int      // store size D
	queryFrac  float64  // share of read-only requests
	serverArgs []string // extra loadctld flags
	paths      []string // [query, update]
}

func paths(k int) []string {
	return []string{fmt.Sprintf("/txn?class=query&k=%d", k), fmt.Sprintf("/txn?class=update&k=%d", k)}
}

var workloads = []workload{
	{name: "small-mixed", backends: 1, items: 4096, queryFrac: 0.25, paths: paths(8)},
	// The two update workloads are not in BENCHMARK.json: their figures
	// moved between sets of runs by more than any allowed bound (under
	// PA with 2 clients the limit also wanders between restart-heavy
	// values and 1; NOTES.md). They stay runnable, for the
	// PA-against-limit-1 comparison.
	//
	// The update workloads lift the restart budget so that, as in the
	// paper's model, an aborted transaction restarts until it commits:
	// with loadctld's default of 3, about 0.3% of contended-update
	// requests fail with 409.
	{name: "contended-update", backends: 1, items: 4096, queryFrac: 0, paths: paths(2048),
		serverArgs: []string{"-maxretry", "1000"}},
	{name: "gated-update", backends: 1, items: 4096, queryFrac: 0, paths: paths(2048),
		serverArgs: []string{"-maxretry", "1000", "-controller", "static", "-initial", "1"}},
	{name: "proxied-small", proxied: true, backends: 3, items: 4096, queryFrac: 0.25, paths: paths(8)},
}

// metricUnits names every metric the benchmark prints and its unit.
var metricUnits = map[string]string{
	"tx_s":          "1/s",
	"p50_us":        "us",
	"cpu_us_per_tx": "us",
	"rss_mib":       "MiB",
	"setup_s":       "s",

	"client.p99_us":             "us",
	"net.overhead_us_p50":       "us",
	"server.handler_us_p50":     "us",
	"server.handler_us_p99":     "us",
	"server.pre_exec_us_p50":    "us",
	"server.post_exec_us_p50":   "us",
	"engine.exec_query_us_p50":  "us",
	"engine.exec_update_us_p50": "us",
	"engine.exec_us_p99":        "us",
	"engine.useful_frac":        "frac",
	"gate.admitted":             "count",
	"gate.queue_max":            "count",
	"gate.shed_frac":            "frac",
	"ctl.updates":               "count",
	"ctl.update_us_p50":         "us",
	"ctl.limit_mean":            "count",
	"cluster.handler_us_p50":    "us",
	"cluster.upstream_us_p50":   "us",
	"cluster.relay_self_us_p50": "us",
	"cluster.upstream_dials":    "count",
	"cluster.retries":           "count",
	"proc.server_cpu_us_per_tx": "us",
	"proc.proxy_cpu_us_per_tx":  "us",
	"proc.client_cpu_us_per_tx": "us",
	"proc.gc_per_ktx":           "count",
	"trace.overhead_frac":       "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	bin, work, root string
	wl              workload
	seed            int64
	seconds         int
	trace           bool
	nproc           int
}

func main() {
	var (
		o     options
		name  string
		trace int
	)
	flag.StringVar(&o.bin, "bin", "", "directory holding loadctld, loadctlproxy and tracedsrv")
	flag.StringVar(&o.work, "work", "", "directory for logs and span files")
	flag.StringVar(&o.root, "root", ".", "checkout root, for the fingerprint")
	flag.StringVar(&name, "workload", "small-mixed", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed for request shapes and the servers' -seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measurement")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	found := false
	for _, wl := range workloads {
		if wl.name == name {
			o.wl, found = wl, true
		}
	}
	if !found || o.bin == "" || o.work == "" || o.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", name, o.seconds, trace)
		os.Exit(2)
	}
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(o options) (*result, error) {
	fp, err := json.Marshal(fingerprint(o))
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%t\n", o.wl.name, o.seed, o.seconds, o.trace)
	fmt.Printf("fingerprint %s\n", fp)
	lo := launchOpts{bin: o.bin, work: o.work, seed: o.seed, nproc: o.nproc}
	if !o.trace {
		return runE2E(o, lo)
	}
	return runTraced(o, lo)
}

// runE2E splits the run over several launches of the stack and pools
// their windows: each launch lands its processes and connections
// somewhere new on the machine, and the medians then cover that spread
// instead of depending on one draw of it. setup_s is the median over all
// launches, set-up-only ones included.
func runE2E(o options, lo launchOpts) (*result, error) {
	n := min(launches, o.seconds)
	per := time.Duration(o.seconds) * time.Second / time.Duration(n)
	r := &result{Correct: true}
	var setups, tx, p50, cpu, rss []float64
	for len(setups) < setupSamples-n {
		st, d, err := launch(o.wl, lo)
		if err != nil {
			return nil, err
		}
		if err := st.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	for i := 0; i < n; i++ {
		st, d, err := launch(o.wl, lo)
		if err != nil {
			return nil, err
		}
		p, err := measure(st, o, per, false)
		if stopErr := st.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		rss = append(rss, p.rss/(1<<20))
		t, a, _, c := p.windows()
		tx, p50, cpu = append(tx, t...), append(p50, a...), append(cpu, c...)
		r.Correct = r.Correct && len(p.problems) == 0
		r.Attempted += p.phase.attempted
		r.Failed += p.phase.failed
	}
	fmt.Printf("windows %d of %s over %d launches; setup_s over %d launches %.4f\n", len(tx), window, n, len(setups), setups)
	fmt.Printf("window tx_s %.0f\n", tx)
	fmt.Printf("fail_frac %.6f frac (%d of %d)\n", frac(r.Failed, r.Attempted), r.Failed, r.Attempted)
	r.Metrics = withUnits(map[string]float64{
		"tx_s":          median(tx),
		"p50_us":        median(p50),
		"cpu_us_per_tx": median(cpu),
		"rss_mib":       median(rss),
		"setup_s":       median(setups),
	})
	return r, nil
}

// windows cuts the timed phase into windows by each committed request's
// completion time and returns, per window, the throughput, the p50 and
// p99 latency in microseconds, and the serving processes' CPU
// microseconds per committed transaction.
func (p *pass) windows() (tx, p50, p99, cpu []float64) {
	n := len(p.cpu) - 1
	lats := make([][]int64, n)
	for i, end := range p.phase.endNanos {
		if w := int(end / int64(p.window)); w < n {
			lats[w] = append(lats[w], p.phase.latNanos[i])
		}
	}
	for w, l := range lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		tx = append(tx, float64(len(l))/p.window.Seconds())
		if len(l) == 0 {
			continue // a stalled window has no latency or cost per commit
		}
		p50 = append(p50, quantile(l, 0.50)/1e3)
		p99 = append(p99, quantile(l, 0.99)/1e3)
		used := p.cpu[w+1].server + p.cpu[w+1].proxy - p.cpu[w].server - p.cpu[w].proxy
		cpu = append(cpu, float64(used)/1e3/float64(len(l)))
	}
	return tx, p50, p99, cpu
}

// runTraced splits the run in two: an untraced pass over the real
// binaries for counters, CPU and the reference throughput, then a pass
// over the traced harness for spans.
func runTraced(o options, lo launchOpts) (*result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	st, _, err := launch(o.wl, lo)
	if err != nil {
		return nil, err
	}
	plain, err := measure(st, o, half, false)
	if stopErr := st.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	lo.traced = true
	st, _, err = launch(o.wl, lo)
	if err != nil {
		return nil, err
	}
	traced, err := measure(st, o, half, true)
	procs := st.procs
	if stopErr := st.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	var serverFiles, proxyFiles [][]span.Span
	for _, p := range procs {
		spans, dropped, err := span.ReadFile(p.spans)
		if err != nil {
			return nil, err
		}
		if dropped > 0 {
			return nil, fmt.Errorf("%s dropped %d spans: more than the harness keeps", p.name, dropped)
		}
		if p.proxy {
			proxyFiles = append(proxyFiles, spans)
		} else {
			serverFiles = append(serverFiles, spans)
		}
	}

	m, unjoined := layerMetrics(traced.phase, serverFiles, proxyFiles, o.wl.proxied)
	if unjoined > 0 {
		traced.problems = append(traced.problems, fmt.Sprintf("%d sampled requests have no handler span to join", unjoined))
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", traced.problems[len(traced.problems)-1])
	}
	_, _, p99, _ := plain.windows()
	m["client.p99_us"] = median(p99)
	committed := float64(plain.phase.committed)
	gate := plain.delta(plain.servers, "loadctl_gate_admitted_total", "loadctl_rejected_total",
		"loadctl_admission_timeouts_total", "loadctl_requests_total", "loadctl_go_gc_pause_seconds_count")
	m["gate.admitted"] = gate["loadctl_gate_admitted_total"]
	m["gate.queue_max"] = plain.maxAfter(plain.servers, "loadctl_gate_queue_max")
	m["gate.shed_frac"] = (gate["loadctl_rejected_total"] + gate["loadctl_admission_timeouts_total"]) /
		math.Max(gate["loadctl_requests_total"], 1)
	m["cluster.retries"] = plain.delta(plain.proxies, "loadctlproxy_retries_total")["loadctlproxy_retries_total"]
	gc := gate["loadctl_go_gc_pause_seconds_count"] +
		plain.delta(plain.proxies, "loadctl_go_gc_pause_seconds_count")["loadctl_go_gc_pause_seconds_count"]
	m["proc.gc_per_ktx"] = gc / (committed / 1e3)
	m["proc.server_cpu_us_per_tx"] = float64(plain.serverCPU) / 1e3 / committed
	m["proc.proxy_cpu_us_per_tx"] = float64(plain.proxyCPU) / 1e3 / committed
	m["proc.client_cpu_us_per_tx"] = float64(plain.clientCPU) / 1e3 / committed
	plainTx := committed / plain.phase.elapsed.Seconds()
	tracedTx := float64(traced.phase.committed) / traced.phase.elapsed.Seconds()
	m["trace.overhead_frac"] = 1 - tracedTx/plainTx
	fmt.Printf("untraced tx_s %.1f, traced tx_s %.1f\n", plainTx, tracedTx)

	// Both passes are checked; the result counts both passes' requests.
	return &result{
		Correct:   len(plain.problems) == 0 && len(traced.problems) == 0,
		Attempted: plain.phase.attempted + traced.phase.attempted,
		Failed:    plain.phase.failed + traced.phase.failed,
		Metrics:   withUnits(m),
	}, nil
}

// pass is one measured phase over one stack, with the readings taken
// around it.
type pass struct {
	phase            phaseResult
	servers, proxies []*proc
	before, after    map[*proc]map[string]float64
	cpu              []cpuReading // at the start and at the end of every window
	window           time.Duration
	serverCPU        time.Duration
	proxyCPU         time.Duration
	clientCPU        time.Duration
	rss              float64
	problems         []string // failed correctness checks
}

// cpuReading is the CPU time the servers, the proxies and this process
// had used at one instant.
type cpuReading struct {
	server, proxy, client time.Duration
	err                   error
}

func readCPU(p *pass) cpuReading {
	var r cpuReading
	if r.server, r.err = sumCPU(p.servers); r.err != nil {
		return r
	}
	if r.proxy, r.err = sumCPU(p.proxies); r.err != nil {
		return r
	}
	r.client, r.err = cpuTime("self")
	return r
}

// measure warms the stack up, then runs the timed phase for d between two
// sets of readings, and checks the outcome.
func measure(st *stack, o options, d time.Duration, traced bool) (*pass, error) {
	g, err := newGenerator(st.entry, clients)
	if err != nil {
		return nil, err
	}
	defer g.close()
	cfg := genConfig{
		paths:    o.wl.paths,
		schedule: makeSchedules(o.seed, clients, scheduleLen, o.wl.queryFrac),
		traced:   traced,
	}
	g.run(cfg, time.Now(), warmup)

	p := &pass{servers: st.servers(), proxies: st.proxies()}
	if p.before, err = scrapeAll(st.procs); err != nil {
		return nil, err
	}
	// CPU is read at every window boundary while the generator runs.
	start := time.Now()
	p.cpu = append(p.cpu, readCPU(p))
	windows := max(1, int(d/window))
	p.window = d / time.Duration(windows)
	sampled := make(chan []cpuReading, 1)
	go func() {
		var rs []cpuReading
		for i := 1; i <= windows; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * p.window)))
			rs = append(rs, readCPU(p))
		}
		sampled <- rs
	}()
	cfg.timed = true
	p.phase = g.run(cfg, start, d)
	p.cpu = append(p.cpu, <-sampled...)
	if err := st.alive(); err != nil {
		return nil, fmt.Errorf("a process ended during the timed phase: %w", err)
	}
	for _, r := range p.cpu {
		if r.err != nil {
			return nil, r.err
		}
	}
	first, last := p.cpu[0], p.cpu[len(p.cpu)-1]
	p.serverCPU, p.proxyCPU, p.clientCPU = last.server-first.server, last.proxy-first.proxy, last.client-first.client
	if p.after, err = scrapeAll(st.procs); err != nil {
		return nil, err
	}
	for _, q := range st.procs {
		hwm, err := peakRSS(pidOf(q))
		if err != nil {
			return nil, err
		}
		p.rss += hwm
	}

	ph := p.phase
	if n := g.dials.Load(); n > clients {
		p.problems = append(p.problems, fmt.Sprintf("generator dialled %d connections, allowed %d", n, clients))
	}
	if ph.badBody > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d answers with 200 lacked \"status\":\"committed\"", ph.badBody))
	}
	if ph.committed == 0 {
		p.problems = append(p.problems, "no request committed")
	}
	commits := p.delta(p.servers, "loadctl_commits_total")["loadctl_commits_total"]
	if commits != float64(ph.committed) {
		p.problems = append(p.problems, fmt.Sprintf("client saw %d commits, servers counted %.0f", ph.committed, commits))
	}
	if len(p.proxies) > 0 {
		relayed := p.delta(p.proxies, "loadctlproxy_relayed_total")["loadctlproxy_relayed_total"]
		if relayed != float64(ph.committed) {
			p.problems = append(p.problems, fmt.Sprintf("client saw %d commits, proxy relayed %.0f", ph.committed, relayed))
		}
	}
	fmt.Printf("checks dials=%d/%d attempted=%d committed=%d server_commits=%.0f status=%v transport_errors=%d\n",
		g.dials.Load(), clients, ph.attempted, ph.committed, commits, ph.status, ph.transport)
	for _, pr := range p.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	return p, nil
}

// withUnits attaches each metric's unit.
func withUnits(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for n, v := range values {
		out[n] = metric{Value: v, Unit: metricUnits[n]}
	}
	return out
}

func scrapeAll(procs []*proc) (map[*proc]map[string]float64, error) {
	out := map[*proc]map[string]float64{}
	for _, p := range procs {
		m, err := scrape(p)
		if err != nil {
			return nil, err
		}
		out[p] = m
	}
	return out, nil
}

// delta sums each series' change over the timed phase across procs.
func (p *pass) delta(procs []*proc, series ...string) map[string]float64 {
	out := map[string]float64{}
	for _, q := range procs {
		for _, s := range series {
			out[s] += p.after[q][s] - p.before[q][s]
		}
	}
	return out
}

// maxAfter is the largest end-of-phase value of a gauge across procs.
func (p *pass) maxAfter(procs []*proc, series string) float64 {
	v := 0.0
	for _, q := range procs {
		v = math.Max(v, p.after[q][series])
	}
	return v
}

// quantile is the nearest-rank q-quantile of sorted, 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fingerprint describes the machine and the code a result came from.
func fingerprint(o options) map[string]any {
	return map[string]any{
		"nproc":                o.nproc,
		"gomaxprocs_server":    o.nproc,
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"cpu_model":            cpuModel(),
		"go_version":           runtime.Version(),
		"commit":               commit(o.root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git revision or, outside a git repository, a
// hash of its Go sources and module files. git is kept from looking for
// a repository above the checkout.
func commit(root string) string {
	if abs, err := filepath.Abs(root); err == nil {
		cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
