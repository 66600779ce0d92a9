// Package loadgen drives the transaction server with synthetic traffic
// over real TCP connections, replaying the same workload.Schedule time
// courses the simulator uses — so every simulator-only scenario (constant,
// jump, sinusoid, step) becomes a live-traffic scenario.
//
// Two generator shapes, matching the two canonical traffic models:
//
//   - open loop: arrivals form a (possibly time-varying) Poisson process
//     whose rate follows a Schedule; latency does not throttle arrivals,
//     so overload pressure is sustained — the regime where admission
//     control matters most;
//
//   - closed loop: a fixed population of clients, each cycling
//     think → request → response, the paper's terminal model (§7).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/workload"
)

// Mode selects the traffic model.
type Mode int

const (
	// Open generates Poisson arrivals at a schedule-driven rate,
	// independent of response latency.
	Open Mode = iota
	// Closed runs a fixed client population with think times.
	Closed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Closed {
		return "closed"
	}
	return "open"
}

// Config parameterizes one load-generation run.
type Config struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8344"; required
	// unless URLs is set.
	URL string
	// URLs, when non-empty, spreads the load over several targets (a
	// proxy plus its backends, or the backends directly): open-loop
	// arrivals rotate round-robin per request, closed-loop clients are
	// pinned to targets round-robin by client index. Takes precedence
	// over URL.
	URLs []string
	// Mode selects open- or closed-loop traffic (default Open).
	Mode Mode
	// Rate is the open-loop arrival rate in requests/second as a function
	// of seconds since run start; required for Open mode.
	Rate workload.Schedule
	// Clients is the closed-loop population size (default 32).
	Clients int
	// Think is the closed-loop think-time distribution in seconds
	// (default exponential with mean 0.1s).
	Think sim.Dist
	// Mix shapes transactions over time (class and size); default
	// workload.DefaultMix(). The server resolves zero values from its own
	// mix, so only explicitly configured schedules are sent.
	Mix workload.Mix
	// Duration bounds the run (default 10s); the context can end it early.
	Duration time.Duration
	// Timeout is the per-request HTTP timeout (default 30s).
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding open-loop requests; when
	// the cap is hit further arrivals are shed client-side and counted in
	// Report.Shed (default 4096).
	MaxInFlight int
	// Seed derives all random streams (arrivals, think times, mixes).
	Seed int64
	// Trace mints a fresh X-Loadctl-Trace ID for every request, making the
	// load generator the tracing edge: the proxy and backend adopt the ID,
	// so a request head-sampled by ID residue is captured in both tiers'
	// /debug/requests rings under the same identifier.
	Trace bool
	// Client overrides the HTTP client (tests); Timeout is ignored then.
	// Without one, the run pools one connection per request it can have
	// in flight: Clients in closed loop, MaxInFlight in open loop.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.Think == nil {
		c.Think = sim.Exponential{Mu: 0.1}
	}
	if c.Mix.K == nil {
		c.Mix = workload.DefaultMix()
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// newClient is the HTTP client of a run that brought none: a private
// transport pooling one connection per request the run can have in
// flight (conns), so each response frees a connection for the next
// request instead of a fresh dial. http.DefaultTransport keeps only 2
// idle connections per host, so beyond 2 concurrent clients nearly every
// request dialled. The pool is also capped at conns per host: without
// the cap, a request that finds every connection busy while earlier
// dials are still in flight dials again, and a start-up burst leaves
// more connections than requests.
func newClient(timeout time.Duration, conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = conns
	tr.MaxIdleConnsPerHost = conns
	tr.MaxConnsPerHost = conns
	return &http.Client{Timeout: timeout, Transport: tr}
}

// Report summarizes one run from the client's vantage point.
type Report struct {
	Mode     string  `json:"mode"`
	Duration float64 `json:"duration_seconds"`
	// Sent counts requests handed to the HTTP client (build failures for
	// a malformed URL are included and land in Errors, keeping the
	// identity below exact); Shed counts open-loop arrivals dropped
	// client-side at the in-flight cap (offered load the server never
	// saw).
	Sent uint64 `json:"sent"`
	Shed uint64 `json:"shed"`
	// Committed / Rejected / Timeouts / Aborted mirror the server's
	// status answers; Errors counts transport failures and unexpected
	// statuses; Unresolved counts requests cut off by the end of the run
	// while still in flight — sent, but with an unknowable outcome. The
	// report always reconciles exactly:
	//
	//	Sent == Committed + Rejected + Timeouts + Aborted + Errors + Unresolved
	Committed  uint64 `json:"committed"`
	Rejected   uint64 `json:"rejected"`
	Timeouts   uint64 `json:"timeouts"`
	Aborted    uint64 `json:"aborted"`
	Errors     uint64 `json:"errors"`
	Unresolved uint64 `json:"unresolved"`
	// Queries/Updates count requests whose shape the client chose;
	// requests that leave the shape to the server (class-tagged scenario
	// streams without an explicit shape) are in neither, so the pair may
	// undercount Sent.
	Queries uint64 `json:"queries"`
	Updates uint64 `json:"updates"`
	// Throughput is committed transactions per second of run time.
	Throughput float64 `json:"throughput"`
	// LatMean/LatP50/LatP95/LatP99 are response-time statistics in seconds
	// over committed requests, corrected for coordinated omission: in open
	// loop each latency is measured from the request's *intended* send slot
	// on the arrival schedule, not from whenever the generator actually got
	// it onto the wire. When the generator falls behind (GC pause, CPU
	// starvation, a stalled connection pool), the missed wait is service
	// delay the schedule's client would have experienced — dropping it
	// understates tail latency exactly when the system is in trouble.
	//
	// The quantiles are read off the log-bucketed telemetry.Histogram the
	// server measures with: each is the midpoint of a ±10% bucket, and
	// everything above ~3.3 s lands in one top bucket, reported as ~3.0 s.
	// The means are exact.
	LatMean float64 `json:"lat_mean"`
	LatP50  float64 `json:"lat_p50"`
	LatP95  float64 `json:"lat_p95"`
	LatP99  float64 `json:"lat_p99"`
	// LatRaw* are the uncorrected statistics, measured from the actual
	// send: the classic (flattering) numbers. Corrected == raw when the
	// generator kept pace; a gap between the two measures generator lag. In
	// closed-loop mode there is no intended schedule, so the pairs match.
	LatRawMean float64 `json:"lat_raw_mean"`
	LatRawP50  float64 `json:"lat_raw_p50"`
	LatRawP95  float64 `json:"lat_raw_p95"`
	LatRawP99  float64 `json:"lat_raw_p99"`
}

// String renders the report as a human-readable block.
func (r Report) String() string {
	return fmt.Sprintf(
		"%s-loop %.1fs: sent=%d committed=%d (%.1f tx/s) rejected=%d timeouts=%d aborted=%d shed=%d errors=%d unresolved=%d\n"+
			"latency: mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms (raw p99=%.1fms, queries=%d updates=%d)",
		r.Mode, r.Duration, r.Sent, r.Committed, r.Throughput, r.Rejected, r.Timeouts,
		r.Aborted, r.Shed, r.Errors, r.Unresolved,
		1e3*r.LatMean, 1e3*r.LatP50, 1e3*r.LatP95, 1e3*r.LatP99, 1e3*r.LatRawP99, r.Queries, r.Updates)
}

// collector accumulates run statistics lock-free: outcome counters, and
// the committed requests' latencies on the server's own histogram.
type collector struct {
	sent, shed, committed, rejected, timeouts, aborted, errs atomic.Uint64
	unresolved                                               atomic.Uint64
	queries, updates                                         atomic.Uint64

	lat    latency // corrected: from the intended send slot
	rawLat latency // raw: from the actual send
}

func newCollector() *collector { return &collector{} }

// latency is one lock-free latency record: quantiles from the log-bucketed
// telemetry.Histogram the server measures with, the mean from an exact
// nanosecond sum.
type latency struct {
	hist telemetry.Histogram
	ns   atomic.Int64
}

func (l *latency) observe(d time.Duration) {
	l.hist.Observe(d.Seconds())
	l.ns.Add(int64(d))
}

// latencySum is a plain reading of one or more latency records; readings
// add, so a scenario's total folds its streams before taking quantiles.
type latencySum struct {
	counts telemetry.HistCounts
	n      uint64
	ns     int64
}

func (s *latencySum) add(l *latency) {
	c := l.hist.Counts()
	for i, k := range c {
		s.counts[i] += k
		s.n += k
	}
	s.ns += l.ns.Load()
}

// stats returns the mean, p50, p95 and p99 in seconds (zeros when empty).
func (s *latencySum) stats() (mean, p50, p95, p99 float64) {
	if s.n == 0 {
		return 0, 0, 0, 0
	}
	return float64(s.ns) / float64(s.n) / 1e9,
		s.counts.Quantile(0.50), s.counts.Quantile(0.95), s.counts.Quantile(0.99)
}

func (c *collector) observe(status int, lat, rawLat time.Duration, err error) {
	if err != nil {
		c.errs.Add(1)
		return
	}
	switch status {
	case http.StatusOK:
		c.committed.Add(1)
		c.lat.observe(lat)
		c.rawLat.observe(rawLat)
	case http.StatusTooManyRequests:
		c.rejected.Add(1)
	case http.StatusServiceUnavailable:
		c.timeouts.Add(1)
	case http.StatusConflict:
		c.aborted.Add(1)
	default:
		c.errs.Add(1)
	}
}

func (c *collector) report(mode Mode, dur time.Duration) Report {
	r := Report{
		Mode:       mode.String(),
		Duration:   dur.Seconds(),
		Sent:       c.sent.Load(),
		Shed:       c.shed.Load(),
		Committed:  c.committed.Load(),
		Rejected:   c.rejected.Load(),
		Timeouts:   c.timeouts.Load(),
		Aborted:    c.aborted.Load(),
		Errors:     c.errs.Load(),
		Unresolved: c.unresolved.Load(),
		Queries:    c.queries.Load(),
		Updates:    c.updates.Load(),
	}
	if r.Duration > 0 {
		r.Throughput = float64(r.Committed) / r.Duration
	}
	var lat, raw latencySum
	lat.add(&c.lat)
	raw.add(&c.rawLat)
	r.LatMean, r.LatP50, r.LatP95, r.LatP99 = lat.stats()
	r.LatRawMean, r.LatRawP50, r.LatRawP95, r.LatRawP99 = raw.stats()
	return r
}

// targets spreads requests over one or more base URLs: next() rotates
// round-robin (open-loop arrivals), pin() fixes a client to one target
// (closed-loop terminals keep their connections warm on one host).
type targets struct {
	urls []string
	n    atomic.Uint64
}

func newTargets(urls []string) (*targets, error) {
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		out = append(out, strings.TrimRight(u, "/"))
	}
	if len(out) == 0 {
		return nil, errors.New("loadgen: at least one target URL is required")
	}
	return &targets{urls: out}, nil
}

func (t *targets) next() string {
	return t.urls[int((t.n.Add(1)-1)%uint64(len(t.urls)))]
}

func (t *targets) pin(i int) string {
	if i < 0 {
		i = -i
	}
	return t.urls[i%len(t.urls)]
}

// targetList resolves Config.URLs/URL into the target set.
func (c Config) targetList() ([]string, error) {
	if len(c.URLs) > 0 {
		return c.URLs, nil
	}
	if c.URL != "" {
		return []string{c.URL}, nil
	}
	return nil, errors.New("loadgen: Config.URL or Config.URLs is required")
}

// Run drives the server until Duration elapses or ctx ends, then returns
// the client-side report. The error is non-nil only for configuration
// problems; transport failures are counted, not fatal.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	urls, err := cfg.targetList()
	if err != nil {
		return Report{}, err
	}
	tg, err := newTargets(urls)
	if err != nil {
		return Report{}, err
	}
	if cfg.Mode == Open && cfg.Rate == nil {
		return Report{}, errors.New("loadgen: open-loop mode needs Config.Rate")
	}
	if cfg.Client == nil {
		conns := cfg.MaxInFlight
		if cfg.Mode == Closed {
			conns = cfg.Clients
		}
		cfg.Client = newClient(cfg.Timeout, conns)
		defer cfg.Client.CloseIdleConnections()
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	col := newCollector()
	start := time.Now()
	var wg sync.WaitGroup

	switch cfg.Mode {
	case Open:
		runOpen(runCtx, cfg, tg, col, start, &wg)
	case Closed:
		runClosed(runCtx, cfg, tg, col, start, &wg)
	default:
		return Report{}, fmt.Errorf("loadgen: unknown mode %d", cfg.Mode)
	}

	wg.Wait()
	return col.report(cfg.Mode, time.Since(start)), nil
}

// runOpen paces a non-homogeneous Poisson process: inter-arrival gaps are
// exponential at the instantaneous rate Rate(t). Each arrival fires in its
// own goroutine so slow responses never throttle the arrival process.
//
// Pacing follows an absolute intended-time schedule: each exponential gap
// advances next from the previous intended slot, never from whenever the
// loop actually woke up. If the generator falls behind (GC pause, CPU
// starvation), subsequent arrivals fire back-to-back until the schedule
// catches up, and each request's corrected latency is measured from its
// intended slot. Pacing relative to the actual wake time instead would
// silently slow the offered load and hide the backlog — the coordinated
// omission trap.
func runOpen(ctx context.Context, cfg Config, tg *targets, col *collector, start time.Time, wg *sync.WaitGroup) {
	pacer := sim.Stream(cfg.Seed, 1)
	mixer := sim.Stream(cfg.Seed, 2)
	sem := make(chan struct{}, cfg.MaxInFlight)
	next := start
	for {
		t := next.Sub(start).Seconds()
		rate := cfg.Rate.Value(t)
		dormant := rate <= 0 || math.IsNaN(rate)
		if dormant {
			// Dormant schedule: step the intended clock forward in poll
			// increments until the rate comes back to life.
			next = next.Add(10 * time.Millisecond)
		} else {
			next = next.Add(time.Duration(pacer.Exp(1/rate) * float64(time.Second)))
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			// Behind schedule: fire immediately, but still honor run end.
			return
		}
		if dormant {
			continue
		}
		class, k := sampleTxn(mixer, cfg.Mix, next.Sub(start).Seconds())
		select {
		case sem <- struct{}{}:
		default:
			col.shed.Add(1)
			continue
		}
		base := tg.next()
		intended := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			doRequest(ctx, cfg, base, col, class, k, intended)
		}()
	}
}

// runClosed runs the terminal model: Clients goroutines looping
// think → request → response until the run ends. Each client is pinned to
// one target, spreading the population round-robin over the target set.
func runClosed(ctx context.Context, cfg Config, tg *targets, col *collector, start time.Time, wg *sync.WaitGroup) {
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := tg.pin(id)
			rng := sim.Stream(cfg.Seed, 100+uint64(id))
			for {
				think := time.Duration(cfg.Think.Sample(rng) * float64(time.Second))
				select {
				case <-ctx.Done():
					return
				case <-time.After(think):
				}
				class, k := sampleTxn(rng, cfg.Mix, time.Since(start).Seconds())
				// No intended slot: a closed-loop client genuinely waits
				// for each response, so the raw latency is the honest one.
				doRequest(ctx, cfg, base, col, class, k, time.Time{})
			}
		}(i)
	}
}

// sampleTxn draws one transaction's class and size from the mix at time t.
func sampleTxn(rng *sim.RNG, mix workload.Mix, t float64) (class string, k int) {
	class = "update"
	if rng.Bernoulli(mix.QueryFracAt(t)) {
		class = "query"
	}
	return class, mix.KAt(t)
}

// txnParams is everything one POST /txn carries. Class/Shape empty means
// "server decides"; Span 0 means the full store. Trace mints a fresh
// X-Loadctl-Trace ID on the request.
type txnParams struct {
	Class string
	Shape string
	K     int
	Base  int
	Span  int
	Trace bool
}

// url renders the query string against the server base URL.
func (p txnParams) url(base string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/txn")
	sep := byte('?')
	add := func(key, val string) {
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if p.Class != "" {
		add("class", neturl.QueryEscape(p.Class))
	}
	if p.Shape != "" {
		add("shape", neturl.QueryEscape(p.Shape))
	}
	if p.K > 0 {
		add("k", strconv.Itoa(p.K))
	}
	if p.Span > 0 {
		add("base", strconv.Itoa(p.Base))
		add("span", strconv.Itoa(p.Span))
	}
	return b.String()
}

// doRequest performs one POST /txn round trip and records the outcome.
// intended is the request's slot on the arrival schedule (zero when there
// is none — closed loop, scenario probes).
func doRequest(ctx context.Context, cfg Config, base string, col *collector, class string, k int, intended time.Time) {
	issueRequest(ctx, cfg.Client, base, col, txnParams{Class: class, K: k, Trace: cfg.Trace}, intended)
}

// issueRequest is the shared request primitive under both the schedule
// replayer and the scenario engine. It returns the HTTP status (0 when
// the request never completed). A non-zero intended timestamps the
// request's slot on the arrival schedule; the corrected latency is
// measured from it (raw latency always runs from the actual send).
func issueRequest(ctx context.Context, client *http.Client, base string, col *collector, p txnParams, intended time.Time) int {
	// The pacing selects racing ctx.Done against a zero timer can let an
	// arrival through after run end; don't count a request never sent.
	if ctx.Err() != nil {
		return 0
	}
	// Count the attempt before building the request: a malformed URL makes
	// every build fail, and those failures must land in Errors *and* Sent
	// or the report identity (Sent == sum of outcomes) breaks.
	col.sent.Add(1)
	shape := p.Shape
	if shape == "" && (p.Class == "query" || p.Class == "update") {
		shape = p.Class // legacy shape-through-class API
	}
	switch shape {
	case "query":
		col.queries.Add(1)
	case "update":
		col.updates.Add(1)
	default:
		// The server decides the shape (class default or mix sample);
		// the client cannot book it, so Queries+Updates may undercount
		// Sent for class-tagged streams.
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url(base), nil)
	if err != nil {
		col.errs.Add(1)
		return 0
	}
	if p.Trace {
		req.Header.Set(reqtrace.Header, reqtrace.FormatID(reqtrace.NewID()))
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// A request cut short by run end is not a server failure; its
		// outcome is simply unknown. Count it so the report still
		// reconciles against Sent instead of silently dropping it.
		if ctx.Err() != nil {
			col.unresolved.Add(1)
		} else {
			col.observe(0, 0, 0, err)
		}
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	raw := time.Since(t0)
	lat := raw
	if !intended.IsZero() {
		// Corrected latency: what a client that showed up on schedule
		// experienced, generator lag included.
		lat = time.Since(intended)
	}
	col.observe(resp.StatusCode, lat, raw, nil)
	return resp.StatusCode
}
