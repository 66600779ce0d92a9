// Scenario engine: a JSON scenario file composes phased, multi-class
// traffic — several concurrent streams, each open- or closed-loop, each
// tagged with an admission class and carrying its own time-varying rate,
// size and shape schedules plus adversarial options (flash crowds via
// burst schedules, hotspot shift, client-side retry storms, slow-client
// drip). One scenario run produces per-stream and aggregate reports, so
// any paper figure — or any attack on the controller — is a file.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/workload"
)

// ScheduleJSON is the JSON form of a workload.Schedule. Kind selects the
// shape; the other fields parameterize it:
//
//	{"kind":"const","value":100}
//	{"kind":"jump","at":15,"before":100,"after":600}
//	{"kind":"sin","mean":300,"amp":250,"period":60,"phase":0}
//	{"kind":"step","times":[0,10,20],"vals":[50,400,50]}
//	{"kind":"ramp","start":5,"dur":10,"before":10,"after":500}
//	{"kind":"burst","value":50,"mult":20,"at":15,"dur":10}
//
// "burst" is the flash-crowd shape: the base value multiplied by Mult
// during [At, At+Dur). Lo/Hi, when set, clamp any shape's output.
type ScheduleJSON struct {
	Kind   string    `json:"kind"`
	Value  float64   `json:"value,omitempty"`
	At     float64   `json:"at,omitempty"`
	Before float64   `json:"before,omitempty"`
	After  float64   `json:"after,omitempty"`
	Mean   float64   `json:"mean,omitempty"`
	Amp    float64   `json:"amp,omitempty"`
	Period float64   `json:"period,omitempty"`
	Phase  float64   `json:"phase,omitempty"`
	Times  []float64 `json:"times,omitempty"`
	Vals   []float64 `json:"vals,omitempty"`
	Start  float64   `json:"start,omitempty"`
	Dur    float64   `json:"dur,omitempty"`
	Mult   float64   `json:"mult,omitempty"`
	Lo     *float64  `json:"lo,omitempty"`
	Hi     *float64  `json:"hi,omitempty"`
}

// Build compiles the JSON form into a workload.Schedule.
func (sj *ScheduleJSON) Build() (workload.Schedule, error) {
	var s workload.Schedule
	switch sj.Kind {
	case "const":
		s = workload.Constant{V: sj.Value}
	case "jump":
		s = workload.Jump{At: sj.At, Before: sj.Before, After: sj.After}
	case "sin":
		if sj.Period <= 0 {
			return nil, fmt.Errorf("sin schedule needs period > 0, got %g", sj.Period)
		}
		s = workload.Sinusoid{Mean: sj.Mean, Amp: sj.Amp, Period: sj.Period, Phase: sj.Phase}
	case "step":
		if len(sj.Times) == 0 || len(sj.Times) != len(sj.Vals) {
			return nil, fmt.Errorf("step schedule needs equal, non-empty times (%d) and vals (%d)", len(sj.Times), len(sj.Vals))
		}
		if !sort.Float64sAreSorted(sj.Times) {
			return nil, errors.New("step schedule times must be ascending")
		}
		s = workload.Step{Times: sj.Times, Vals: sj.Vals}
	case "ramp":
		if sj.Dur < 0 {
			return nil, fmt.Errorf("ramp schedule needs dur >= 0, got %g", sj.Dur)
		}
		s = workload.Ramp{Start: sj.Start, Dur: sj.Dur, Before: sj.Before, After: sj.After}
	case "burst":
		if sj.Dur <= 0 {
			return nil, fmt.Errorf("burst schedule needs dur > 0, got %g", sj.Dur)
		}
		if sj.Mult < 0 {
			return nil, fmt.Errorf("burst schedule needs mult >= 0, got %g", sj.Mult)
		}
		if sj.At < 0 {
			// A negative window start would build an unsorted Step whose
			// binary search silently picks wrong segments.
			return nil, fmt.Errorf("burst schedule needs at >= 0, got %g", sj.At)
		}
		s = workload.Step{
			Times: []float64{0, sj.At, sj.At + sj.Dur},
			Vals:  []float64{sj.Value, sj.Value * sj.Mult, sj.Value},
		}
	default:
		return nil, fmt.Errorf("unknown schedule kind %q (want const, jump, sin, step, ramp, burst)", sj.Kind)
	}
	if sj.Lo != nil || sj.Hi != nil {
		lo, hi := math.Inf(-1), math.Inf(1)
		if sj.Lo != nil {
			lo = *sj.Lo
		}
		if sj.Hi != nil {
			hi = *sj.Hi
		}
		if hi < lo {
			return nil, fmt.Errorf("schedule clamp inverted: [%g, %g]", lo, hi)
		}
		s = workload.Clamp{S: s, Lo: lo, Hi: hi}
	}
	return s, nil
}

// HotspotConfig concentrates a stream's access sets on a moving fraction
// of the store — the hotspot-shift adversarial pattern: the controller
// tunes to one conflict regime, then the hot set moves.
type HotspotConfig struct {
	// SpanFrac is the fraction of the store the hot set covers (0, 1].
	SpanFrac float64 `json:"span_frac"`
	// ShiftSeconds relocates the hot set this often (0 = static hot set).
	ShiftSeconds float64 `json:"shift_seconds,omitempty"`
}

// RetryConfig makes a stream re-offer shed work — the retry-storm
// amplifier: every rejection spawns another attempt, so shedding raises
// offered load exactly when the server is saturated.
type RetryConfig struct {
	// Max is the number of re-submissions after the first attempt.
	Max int `json:"max"`
	// BackoffMS is the fixed client-side delay before each retry.
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	// On lists the outcomes that trigger a retry: "rejected" (429),
	// "timeout" (503), "aborted" (409). Default: rejected + timeout.
	On []string `json:"on,omitempty"`
}

func (r *RetryConfig) statuses() (map[int]bool, error) {
	on := r.On
	if len(on) == 0 {
		on = []string{"rejected", "timeout"}
	}
	set := make(map[int]bool, len(on))
	for _, o := range on {
		switch o {
		case "rejected":
			set[http.StatusTooManyRequests] = true
		case "timeout":
			set[http.StatusServiceUnavailable] = true
		case "aborted":
			set[http.StatusConflict] = true
		default:
			return nil, fmt.Errorf("unknown retry trigger %q (want rejected, timeout, aborted)", o)
		}
	}
	return set, nil
}

// StreamConfig is one traffic stream inside a scenario.
type StreamConfig struct {
	// Name labels the stream in the report (default: the class name, or
	// "stream<i>").
	Name string `json:"name,omitempty"`
	// Class is the admission class tag sent with every request ("" lets
	// the server route to its default class).
	Class string `json:"class,omitempty"`
	// Shape pins the transaction shape: "query", "update", or "" (the
	// class default / server mix; QueryFrac below overrides per request).
	Shape string `json:"shape,omitempty"`
	// Mode is "open" (Poisson at Rate) or "closed" (Clients terminals).
	Mode string `json:"mode"`
	// StartSeconds/StopSeconds bound the stream's active window inside
	// the run (stop 0 = until the end) — this is how phased scenarios
	// are composed.
	StartSeconds float64 `json:"start_seconds,omitempty"`
	StopSeconds  float64 `json:"stop_seconds,omitempty"`
	// Rate is the open-loop arrival schedule in tx/s; required for open.
	Rate *ScheduleJSON `json:"rate,omitempty"`
	// Clients is the closed-loop population (default 32).
	Clients int `json:"clients,omitempty"`
	// ThinkMS is the closed-loop mean think time (exponential).
	ThinkMS float64 `json:"think_ms,omitempty"`
	// K is the transaction-size schedule (nil = server default).
	K *ScheduleJSON `json:"k,omitempty"`
	// QueryFrac samples the shape per request when Shape is "" (nil =
	// server default).
	QueryFrac *ScheduleJSON `json:"query_frac,omitempty"`
	// MaxInFlight caps this stream's outstanding open-loop requests
	// (default 4096); arrivals beyond it are shed client-side.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Hotspot concentrates the access sets (nil = uniform).
	Hotspot *HotspotConfig `json:"hotspot,omitempty"`
	// Retry re-offers shed work (nil = no client retries).
	Retry *RetryConfig `json:"retry,omitempty"`
	// StallMS is a client-side dwell after every response — the
	// slow-client drip: in closed loop it stretches each terminal's
	// cycle; in open loop it holds the in-flight slot, so a small
	// MaxInFlight plus a stall models clients that occupy capacity
	// without offering throughput.
	StallMS float64 `json:"stall_ms,omitempty"`
}

// ClusterEvent is one timed backend fault inside a scenario's cluster
// stanza: kill (abrupt stop), restart (bring the backend back), drain
// (graceful shutdown — stop accepting, finish in-flight work), or slow
// (multiply the backend's service time by Factor; Factor 1 restores
// full speed).
type ClusterEvent struct {
	// AtSeconds is the event time on the scenario clock.
	AtSeconds float64 `json:"at_seconds"`
	// Action is "kill", "restart", "drain", or "slow".
	Action string `json:"action"`
	// Backend indexes the backend the event targets (actuator-defined
	// numbering; the integration harness and cmd front-ends number them
	// in configuration order).
	Backend int `json:"backend"`
	// Factor is the service-time multiplier for "slow" (default 1 = full
	// speed); ignored by the other actions.
	Factor float64 `json:"factor,omitempty"`
}

func (e ClusterEvent) String() string {
	if e.Action == "slow" {
		return fmt.Sprintf("t=%gs %s backend %d x%g", e.AtSeconds, e.Action, e.Backend, e.Factor)
	}
	return fmt.Sprintf("t=%gs %s backend %d", e.AtSeconds, e.Action, e.Backend)
}

// ClusterConfig is the scenario's cluster stanza: backend faults injected
// on the scenario clock while the traffic streams run. Executing the
// events needs a ClusterActuator (the scenario file only *describes* the
// faults; only the harness running the backends can inflict them), so
// RunScenarioOpts rejects a cluster scenario without one.
type ClusterConfig struct {
	Events []ClusterEvent `json:"events"`
}

// ClusterActuator applies one cluster event to the backend fleet. The
// multi-backend integration harness implements it over in-process
// servers; an external harness can implement it with signals or a
// container runtime.
type ClusterActuator interface {
	Apply(ctx context.Context, ev ClusterEvent) error
}

// Scenario is the top-level scenario file.
type Scenario struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`
	// DurationSeconds bounds the run (default 30).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Seed derives every stream's random streams (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Items is the server's store size D, used only to place hotspot key
	// ranges (default 4096).
	Items int `json:"items,omitempty"`
	// Streams run concurrently for the duration of the scenario.
	Streams []StreamConfig `json:"streams"`
	// Cluster optionally injects backend faults during the run.
	Cluster *ClusterConfig `json:"cluster,omitempty"`
}

// ParseScenario decodes and validates a scenario file. Unknown fields are
// errors — a typo in an adversarial scenario should fail loudly, not
// silently produce a benign run.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the document is a malformed file too.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, errors.New("scenario: trailing data after JSON document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Validate checks the scenario and applies defaults in place.
func (sc *Scenario) Validate() error {
	if sc.DurationSeconds < 0 || math.IsNaN(sc.DurationSeconds) {
		return fmt.Errorf("scenario: duration_seconds %g invalid", sc.DurationSeconds)
	}
	if sc.DurationSeconds == 0 {
		sc.DurationSeconds = 30
	}
	if sc.Items < 0 {
		return fmt.Errorf("scenario: items %d invalid", sc.Items)
	}
	if sc.Items == 0 {
		sc.Items = 4096
	}
	if len(sc.Streams) == 0 {
		return errors.New("scenario: at least one stream is required")
	}
	names := make(map[string]bool, len(sc.Streams))
	for i := range sc.Streams {
		st := &sc.Streams[i]
		if st.Name == "" {
			if st.Class != "" {
				st.Name = st.Class
			} else {
				st.Name = fmt.Sprintf("stream%d", i)
			}
		}
		if names[st.Name] {
			return fmt.Errorf("scenario: duplicate stream name %q", st.Name)
		}
		names[st.Name] = true
		prefix := fmt.Sprintf("scenario: stream %q: ", st.Name)
		switch st.Shape {
		case "", "query", "update":
		default:
			return fmt.Errorf(prefix+"bad shape %q (want query, update or empty)", st.Shape)
		}
		switch st.Mode {
		case "open":
			if st.Rate == nil {
				return errors.New(prefix + "open mode needs a rate schedule")
			}
		case "closed":
			if st.Clients < 0 {
				return fmt.Errorf(prefix+"clients %d invalid", st.Clients)
			}
			if st.Clients == 0 {
				st.Clients = 32
			}
		default:
			return fmt.Errorf(prefix+"bad mode %q (want open or closed)", st.Mode)
		}
		if st.StartSeconds < 0 || st.StopSeconds < 0 ||
			(st.StopSeconds > 0 && st.StopSeconds <= st.StartSeconds) {
			return fmt.Errorf(prefix+"bad active window [%g, %g]", st.StartSeconds, st.StopSeconds)
		}
		if st.ThinkMS < 0 || st.StallMS < 0 {
			return errors.New(prefix + "think_ms and stall_ms must not be negative")
		}
		if st.MaxInFlight < 0 {
			return fmt.Errorf(prefix+"max_in_flight %d invalid", st.MaxInFlight)
		}
		if st.MaxInFlight == 0 {
			st.MaxInFlight = 4096
		}
		for _, s := range []struct {
			name string
			sj   *ScheduleJSON
		}{{"rate", st.Rate}, {"k", st.K}, {"query_frac", st.QueryFrac}} {
			if s.sj == nil {
				continue
			}
			if _, err := s.sj.Build(); err != nil {
				return fmt.Errorf(prefix+"%s: %w", s.name, err)
			}
		}
		if h := st.Hotspot; h != nil {
			if !(h.SpanFrac > 0 && h.SpanFrac <= 1) {
				return fmt.Errorf(prefix+"hotspot span_frac %g outside (0, 1]", h.SpanFrac)
			}
			if h.ShiftSeconds < 0 {
				return fmt.Errorf(prefix+"hotspot shift_seconds %g invalid", h.ShiftSeconds)
			}
		}
		if r := st.Retry; r != nil {
			if r.Max < 0 || r.BackoffMS < 0 {
				return errors.New(prefix + "retry max and backoff_ms must not be negative")
			}
			if _, err := r.statuses(); err != nil {
				return fmt.Errorf(prefix+"retry: %w", err)
			}
		}
	}
	if sc.Cluster != nil {
		for i := range sc.Cluster.Events {
			ev := &sc.Cluster.Events[i]
			prefix := fmt.Sprintf("scenario: cluster event %d: ", i)
			if ev.AtSeconds < 0 || math.IsNaN(ev.AtSeconds) {
				return fmt.Errorf(prefix+"at_seconds %g invalid", ev.AtSeconds)
			}
			if ev.Backend < 0 {
				return fmt.Errorf(prefix+"backend %d invalid", ev.Backend)
			}
			switch ev.Action {
			case "kill", "restart", "drain":
			case "slow":
				if ev.Factor < 0 || math.IsNaN(ev.Factor) {
					return fmt.Errorf(prefix+"factor %g invalid", ev.Factor)
				}
				if ev.Factor == 0 {
					ev.Factor = 1
				}
			default:
				return fmt.Errorf(prefix+"unknown action %q (want kill, restart, drain, slow)", ev.Action)
			}
		}
	}
	return nil
}

// StreamReport is one stream's client-side view of a scenario run.
type StreamReport struct {
	Name  string `json:"name"`
	Class string `json:"class,omitempty"`
	Report
}

// ScenarioReport aggregates a scenario run. Total sums the stream
// counters; its latency quantiles are computed over all committed
// requests of all streams.
type ScenarioReport struct {
	Scenario string         `json:"scenario"`
	Duration float64        `json:"duration_seconds"`
	Streams  []StreamReport `json:"streams"`
	Total    Report         `json:"total"`
	// Cluster logs the injected backend faults in execution order
	// ("t=3s kill backend 2", with any actuator error appended).
	Cluster []string `json:"cluster,omitempty"`
}

// String renders the report as a human-readable block.
func (r ScenarioReport) String() string {
	var b []byte
	b = fmt.Appendf(b, "scenario %q (%.1fs):\n", r.Scenario, r.Duration)
	for _, ev := range r.Cluster {
		b = fmt.Appendf(b, "  cluster: %s\n", ev)
	}
	for _, s := range r.Streams {
		b = fmt.Appendf(b, "  [%s] %s\n", s.Name, indent(s.Report.String()))
	}
	b = fmt.Appendf(b, "  total: sent=%d committed=%d (%.1f tx/s) rejected=%d timeouts=%d aborted=%d shed=%d errors=%d p95=%.1fms",
		r.Total.Sent, r.Total.Committed, r.Total.Throughput, r.Total.Rejected,
		r.Total.Timeouts, r.Total.Aborted, r.Total.Shed, r.Total.Errors, 1e3*r.Total.LatP95)
	return string(b)
}

func indent(s string) string {
	return string(bytes.ReplaceAll([]byte(s), []byte("\n"), []byte("\n    ")))
}

// ScenarioOptions parameterizes RunScenarioOpts.
type ScenarioOptions struct {
	// URLs are the target base URLs (one = the classic single-server
	// run; several = spread over a proxy and/or backends, open-loop
	// arrivals rotating and closed-loop clients pinned round-robin).
	// At least one is required.
	URLs []string
	// Client overrides the HTTP client (default: 30s timeout, one pooled
	// connection per closed-loop client and open-loop in-flight slot
	// over all streams).
	Client *http.Client
	// Actuator executes the scenario's cluster stanza; required when the
	// scenario has cluster events.
	Actuator ClusterActuator
}

// RunScenario drives the server with every stream of the scenario until
// its duration elapses or ctx ends. client may be nil (the default of
// ScenarioOptions.Client is used). The error is non-nil only for
// configuration problems; transport failures are counted per stream.
func RunScenario(ctx context.Context, url string, sc *Scenario, client *http.Client) (ScenarioReport, error) {
	return RunScenarioOpts(ctx, sc, ScenarioOptions{URLs: []string{url}, Client: client})
}

// RunScenarioOpts is RunScenario with multi-target spreading and cluster
// fault injection.
func RunScenarioOpts(ctx context.Context, sc *Scenario, opts ScenarioOptions) (ScenarioReport, error) {
	tg, err := newTargets(opts.URLs)
	if err != nil {
		return ScenarioReport{}, errors.New("loadgen: scenario needs at least one server URL")
	}
	if err := sc.Validate(); err != nil {
		return ScenarioReport{}, err
	}
	if sc.Cluster != nil && len(sc.Cluster.Events) > 0 && opts.Actuator == nil {
		return ScenarioReport{}, errors.New("loadgen: scenario has cluster events but no ClusterActuator to execute them")
	}
	client := opts.Client
	if client == nil {
		// One pooled connection per request the streams can have in
		// flight together: each closed-loop terminal, each open-loop slot.
		conns := 0
		for _, st := range sc.Streams {
			if st.Mode == "closed" {
				conns += st.Clients
			} else {
				conns += st.MaxInFlight
			}
		}
		client = newClient(30*time.Second, conns)
		defer client.CloseIdleConnections()
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}

	runCtx, cancel := context.WithTimeout(ctx, time.Duration(sc.DurationSeconds*float64(time.Second)))
	defer cancel()
	start := time.Now()

	var clusterLog []string
	var clusterWG sync.WaitGroup
	if sc.Cluster != nil && len(sc.Cluster.Events) > 0 {
		events := append([]ClusterEvent(nil), sc.Cluster.Events...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].AtSeconds < events[j].AtSeconds })
		clusterWG.Add(1)
		go func() {
			defer clusterWG.Done()
			for _, ev := range events {
				wait := time.Duration(ev.AtSeconds*float64(time.Second)) - time.Since(start)
				if wait > 0 {
					select {
					case <-runCtx.Done():
						return
					case <-time.After(wait):
					}
				}
				line := ev.String()
				// The actuator gets the parent ctx: a fault landing at the
				// very end of the run should still be applied, not lost to
				// the run-timeout race.
				if err := opts.Actuator.Apply(ctx, ev); err != nil {
					line += " error: " + err.Error()
				}
				clusterLog = append(clusterLog, line)
			}
		}()
	}

	cols := make([]*collector, len(sc.Streams))
	var wg sync.WaitGroup
	for i := range sc.Streams {
		cols[i] = newCollector()
		st := &sc.Streams[i]
		runner := &streamRunner{
			scenario: sc,
			cfg:      st,
			col:      cols[i],
			client:   client,
			targets:  tg,
			start:    start,
			seed:     seed,
			id:       uint64(i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner.run(runCtx)
		}()
	}
	wg.Wait()
	clusterWG.Wait()

	rep := ScenarioReport{Scenario: sc.Name, Duration: time.Since(start).Seconds(), Cluster: clusterLog}
	var totalLat latencySum
	for i, st := range sc.Streams {
		r := cols[i].report(modeOf(st.Mode), time.Since(start))
		rep.Streams = append(rep.Streams, StreamReport{Name: st.Name, Class: st.Class, Report: r})
		rep.Total.Sent += r.Sent
		rep.Total.Shed += r.Shed
		rep.Total.Committed += r.Committed
		rep.Total.Rejected += r.Rejected
		rep.Total.Timeouts += r.Timeouts
		rep.Total.Aborted += r.Aborted
		rep.Total.Errors += r.Errors
		rep.Total.Unresolved += r.Unresolved
		rep.Total.Queries += r.Queries
		rep.Total.Updates += r.Updates
		totalLat.add(&cols[i].lat)
	}
	rep.Total.Mode = "scenario"
	rep.Total.Duration = rep.Duration
	if rep.Duration > 0 {
		rep.Total.Throughput = float64(rep.Total.Committed) / rep.Duration
	}
	rep.Total.LatMean, rep.Total.LatP50, rep.Total.LatP95, rep.Total.LatP99 = totalLat.stats()
	return rep, nil
}

func modeOf(s string) Mode {
	if s == "closed" {
		return Closed
	}
	return Open
}

// streamRunner drives one stream.
type streamRunner struct {
	scenario *Scenario
	cfg      *StreamConfig
	col      *collector
	client   *http.Client
	targets  *targets
	start    time.Time
	seed     int64
	id       uint64

	// Compiled schedules (nil when the stream leaves them to the server).
	rate, kSched, qfSched workload.Schedule
}

// compile builds the stream's schedules once; the configs were validated.
func (r *streamRunner) compile() {
	if r.cfg.Rate != nil {
		r.rate, _ = r.cfg.Rate.Build()
	}
	if r.cfg.K != nil {
		r.kSched, _ = r.cfg.K.Build()
	}
	if r.cfg.QueryFrac != nil {
		r.qfSched, _ = r.cfg.QueryFrac.Build()
	}
}

// active reports whether t lies in the stream's window.
func (r *streamRunner) active(t float64) bool {
	if t < r.cfg.StartSeconds {
		return false
	}
	if r.cfg.StopSeconds > 0 && t >= r.cfg.StopSeconds {
		return false
	}
	return true
}

func (r *streamRunner) run(ctx context.Context) {
	r.compile()
	if r.cfg.Mode == "closed" {
		r.runClosed(ctx)
		return
	}
	r.runOpen(ctx)
}

func (r *streamRunner) runOpen(ctx context.Context) {
	pacer := sim.Stream(r.seed, 1000+r.id)
	mixer := sim.Stream(r.seed, 2000+r.id)
	sem := make(chan struct{}, r.cfg.MaxInFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		t := time.Since(r.start).Seconds()
		v := 0.0
		if r.active(t) {
			v = r.rate.Value(t)
		}
		dormant := v <= 0 || math.IsNaN(v)
		var gap time.Duration
		if dormant {
			// Dormant schedule or inactive window: poll for life.
			gap = 10 * time.Millisecond
		} else {
			gap = time.Duration(pacer.Exp(1/v) * float64(time.Second))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(gap):
		}
		if dormant {
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			r.col.shed.Add(1)
			continue
		}
		p := r.params(mixer, time.Since(r.start).Seconds())
		base := r.targets.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r.request(ctx, base, p)
		}()
	}
}

func (r *streamRunner) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	think := r.cfg.ThinkMS / 1e3
	for i := 0; i < r.cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := r.targets.pin(int(r.id)*1000 + id)
			rng := sim.Stream(r.seed, 10000+r.id*1000+uint64(id))
			for {
				gap := time.Duration(rng.Exp(think) * float64(time.Second))
				t := time.Since(r.start).Seconds()
				if t < r.cfg.StartSeconds {
					gap = time.Duration((r.cfg.StartSeconds - t) * float64(time.Second))
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(gap):
				}
				t = time.Since(r.start).Seconds()
				if !r.active(t) {
					if r.cfg.StopSeconds > 0 && t >= r.cfg.StopSeconds {
						return
					}
					continue
				}
				r.request(ctx, base, r.params(rng, t))
			}
		}(i)
	}
	wg.Wait()
}

// params assembles one request's parameters at time t.
func (r *streamRunner) params(rng *sim.RNG, t float64) txnParams {
	p := txnParams{Class: r.cfg.Class, Shape: r.cfg.Shape}
	if p.Shape == "" && r.qfSched != nil {
		p.Shape = "update"
		if rng.Bernoulli(clamp01(r.qfSched.Value(t))) {
			p.Shape = "query"
		}
	}
	if r.kSched != nil {
		k := int(math.Round(r.kSched.Value(t)))
		if k < 1 {
			k = 1
		}
		p.K = k
	}
	if h := r.cfg.Hotspot; h != nil {
		items := r.scenario.Items
		span := int(h.SpanFrac * float64(items))
		if span < 1 {
			span = 1
		}
		shift := 0
		if h.ShiftSeconds > 0 {
			shift = int(t / h.ShiftSeconds)
		}
		// Knuth-style multiplicative placement decorrelates successive
		// hot-set positions across the store.
		p.Base = int((uint64(shift)*2654435761 + uint64(r.id)*97) % uint64(items))
		p.Span = span
	}
	return p
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// request performs one logical transaction: the initial attempt plus any
// configured client-side retries of shed outcomes.
func (r *streamRunner) request(ctx context.Context, base string, p txnParams) {
	retryOn := map[int]bool(nil)
	max := 0
	var backoff time.Duration
	if r.cfg.Retry != nil {
		retryOn, _ = r.cfg.Retry.statuses() // validated
		max = r.cfg.Retry.Max
		backoff = time.Duration(r.cfg.Retry.BackoffMS * float64(time.Millisecond))
	}
	for attempt := 0; ; attempt++ {
		// Scenario streams have no global arrival schedule to measure from
		// (each stream paces itself), so they report raw latency only.
		status := issueRequest(ctx, r.client, base, r.col, p, time.Time{})
		if attempt >= max || !retryOn[status] {
			break
		}
		if backoff > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
		}
	}
	if r.cfg.StallMS > 0 {
		// Slow-client drip: dwell before releasing this slot/terminal.
		select {
		case <-ctx.Done():
		case <-time.After(time.Duration(r.cfg.StallMS * float64(time.Millisecond))):
		}
	}
}
