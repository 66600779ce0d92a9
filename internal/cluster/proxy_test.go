package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// stub is a fake loadctld backend: /txn answers 200 with the configured
// signal riding the header, /healthz serves the signal as JSON (503 when
// draining, 500 when failHealth is set).
type stub struct {
	ts         *httptest.Server
	sig        atomic.Pointer[loadsig.Signal]
	failHealth atomic.Bool
	txns       atomic.Uint64
	lastTrace  atomic.Value // X-Loadctl-Trace header of the last /txn, string
}

func newStub(t *testing.T, sig loadsig.Signal) *stub {
	t.Helper()
	s := &stub{}
	s.sig.Store(&sig)
	mux := http.NewServeMux()
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		s.txns.Add(1)
		s.lastTrace.Store(r.Header.Get(reqtrace.Header))
		cur := s.sig.Load()
		w.Header().Set(loadsig.Header, cur.Encode())
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"committed"}`))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.failHealth.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		cur := s.sig.Load()
		code := http.StatusOK
		if cur.Draining() {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(cur)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func okSignal() loadsig.Signal {
	return loadsig.Signal{Status: loadsig.StatusOK, Limit: 16, Active: 2, Util: 0.125}
}

func newTestProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 25 * time.Millisecond
	}
	if cfg.SignalStale == 0 {
		cfg.SignalStale = 5 * time.Second
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func postTxn(t *testing.T, ts *httptest.Server, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/txn"+query, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestProxyRelaysAndIngestsSignal(t *testing.T) {
	b0 := newStub(t, okSignal())
	b1 := newStub(t, okSignal())
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp := postTxn(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relayed status = %d", resp.StatusCode)
	}
	if resp.Header.Get(BackendHeader) == "" {
		t.Fatal("no backend header on relayed response")
	}
	if resp.Header.Get(loadsig.Header) == "" {
		t.Fatal("load signal header not relayed")
	}
	snap := p.SnapshotNow()
	if snap.Totals.Relayed != 1 || snap.Totals.Requests != 1 {
		t.Fatalf("totals: %+v", snap.Totals)
	}
	// New starts the first health sweep asynchronously, so the backend
	// that did not serve the request may not have been probed yet: wait
	// for the sweep instead of assuming it beat the request.
	waitFor(t, "the first health sweep", func() bool {
		for _, bs := range p.SnapshotNow().Backends {
			if bs.Signal == nil {
				return false
			}
		}
		return true
	})
	snap = p.SnapshotNow()
	servedBy := resp.Header.Get(BackendHeader)
	for _, bs := range snap.Backends {
		if bs.Signal == nil {
			t.Fatalf("backend %d has no signal after health sweep + traffic", bs.Index)
		}
		if bs.State != StateUp {
			t.Fatalf("backend %d state = %s", bs.Index, bs.State)
		}
		if servedBy == "" {
			continue
		}
	}
	_ = servedBy
}

func TestProxyOverloadPropagation(t *testing.T) {
	sig := okSignal()
	sig.Shedding = []string{"batch"}
	b0 := newStub(t, sig)
	b1 := newStub(t, sig)
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	waitFor(t, "signals ingested", func() bool {
		for _, bs := range p.SnapshotNow().Backends {
			if bs.Signal == nil {
				return false
			}
		}
		return true
	})

	// Every live backend sheds batch: the proxy must fast-reject it...
	resp := postTxn(t, ts, "?class=batch")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch under cluster-wide shed: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fast reject without Retry-After")
	}
	// ...while other classes still route.
	if resp := postTxn(t, ts, "?class=interactive"); resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive during batch shed: status %d, want 200", resp.StatusCode)
	}
	// One backend recovering lifts the propagation.
	clear := okSignal()
	b1.sig.Store(&clear)
	waitFor(t, "recovery signal", func() bool {
		bs := p.SnapshotNow().Backends[1]
		return bs.Signal != nil && !bs.Signal.Shed("batch")
	})
	if resp := postTxn(t, ts, "?class=batch"); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after one backend recovered: status %d, want 200", resp.StatusCode)
	}
	snap := p.SnapshotNow()
	if snap.Totals.FastRejectedOverload != 1 {
		t.Fatalf("fast_rejected_overload = %d, want 1", snap.Totals.FastRejectedOverload)
	}
}

func TestProxyOverloadPropagationDefaultClass(t *testing.T) {
	// Backends shed their *default* class: untagged requests (no ?class=)
	// must propagate the overload too — they land in exactly that class.
	sig := okSignal()
	sig.Default = "default"
	sig.Shedding = []string{"default"}
	b0 := newStub(t, sig)
	b1 := newStub(t, sig)
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	waitFor(t, "signals ingested", func() bool {
		for _, bs := range p.SnapshotNow().Backends {
			if bs.Signal == nil {
				return false
			}
		}
		return true
	})
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("untagged request under default-class shed: status %d, want 503", resp.StatusCode)
	}
	// A signal that cannot name its default class vetoes propagation for
	// untagged traffic.
	anon := okSignal()
	anon.Shedding = []string{"default"}
	b1.sig.Store(&anon)
	waitFor(t, "anonymous signal", func() bool {
		bs := p.SnapshotNow().Backends[1]
		return bs.Signal != nil && bs.Signal.Default == ""
	})
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("untagged request without a named default class: status %d, want 200", resp.StatusCode)
	}
}

func TestProxyMidRequestFailureNotReplayed(t *testing.T) {
	// Backend 0 accepts /txn and kills the connection without answering —
	// the request may have executed, so the proxy must answer 502 rather
	// than replay the transaction on backend 1.
	b0 := newStub(t, okSignal())
	b1 := newStub(t, okSignal())
	mux := http.NewServeMux()
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer not hijackable")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	})
	mux.Handle("/healthz", b0.ts.Config.Handler) // healthy health checks
	breaker := httptest.NewServer(mux)
	defer breaker.Close()

	p := newTestProxy(t, Config{
		Backends:       []string{breaker.URL, b1.ts.URL},
		Policy:         "round-robin",
		HealthInterval: time.Hour, // passive path only
		SignalStale:    time.Hour,
	})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// Round-robin's first pick is the breaker.
	resp := postTxn(t, ts, "")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("mid-request failure: status %d, want 502", resp.StatusCode)
	}
	if n := b1.txns.Load(); n != 0 {
		t.Fatalf("transaction was replayed on backend 1 (%d executions)", n)
	}
	snap := p.SnapshotNow()
	if snap.Totals.Failed != 1 || snap.Totals.Retries != 0 {
		t.Fatalf("totals after mid-request failure: %+v", snap.Totals)
	}
	if snap.Backends[0].State != StateDead {
		t.Fatalf("breaker backend state = %s, want dead", snap.Backends[0].State)
	}
	// Subsequent requests route to the healthy backend.
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("after breaker marked dead: status %d, want 200", resp.StatusCode)
	}
}

func TestProxyPassiveDeadMarkingAndRetry(t *testing.T) {
	b0 := newStub(t, okSignal())
	b1 := newStub(t, okSignal())
	// Health interval far beyond the test so only passive marking acts:
	// the failover must come from the data path itself.
	p := newTestProxy(t, Config{
		Backends:       []string{b0.ts.URL, b1.ts.URL},
		Policy:         "round-robin",
		HealthInterval: time.Hour,
		SignalStale:    time.Hour,
	})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// Kill backend 0 abruptly. Round-robin's first pick is backend 0, so
	// the first request hits the corpse, marks it dead, and is retried on
	// backend 1 — the client still sees 200.
	b0.ts.CloseClientConnections()
	b0.ts.Close()
	for i := 0; i < 4; i++ {
		if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after kill: status %d, want 200 via retry", i, resp.StatusCode)
		}
	}
	snap := p.SnapshotNow()
	if snap.Backends[0].State != StateDead {
		t.Fatalf("backend 0 state = %s, want dead", snap.Backends[0].State)
	}
	if snap.Totals.Retries == 0 {
		t.Fatal("no retries recorded although a forward must have failed over")
	}
	if snap.Totals.Relayed != 4 {
		t.Fatalf("relayed = %d, want 4", snap.Totals.Relayed)
	}
	if snap.Backends[0].Errors == 0 {
		t.Fatal("backend 0 shows no transport errors")
	}
}

func TestProxyHealthKillsAndRevives(t *testing.T) {
	b0 := newStub(t, okSignal())
	b1 := newStub(t, okSignal())
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}, DeadAfter: 2})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	b1.failHealth.Store(true)
	waitFor(t, "backend 1 dead after failed checks", func() bool {
		return p.SnapshotNow().Backends[1].State == StateDead
	})
	b1.failHealth.Store(false)
	waitFor(t, "backend 1 revived", func() bool {
		return p.SnapshotNow().Backends[1].State == StateUp
	})
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("after revive: status %d", resp.StatusCode)
	}
}

func TestProxyNoBackendFastReject(t *testing.T) {
	b0 := newStub(t, okSignal())
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL}, DeadAfter: 1})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	b0.failHealth.Store(true)
	b0.ts.Close()
	waitFor(t, "backend dead", func() bool {
		return p.SnapshotNow().Backends[0].State == StateDead
	})
	resp := postTxn(t, ts, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-backend status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on no-backend reject")
	}
	snap := p.SnapshotNow()
	if snap.Totals.FastRejectedNoBackend != 1 {
		t.Fatalf("fast_rejected_no_backend = %d, want 1", snap.Totals.FastRejectedNoBackend)
	}
}

func TestProxyDrainingBackendOutOfRotation(t *testing.T) {
	draining := okSignal()
	draining.Status = loadsig.StatusDraining
	b0 := newStub(t, okSignal())
	b1 := newStub(t, draining)
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	waitFor(t, "draining detected", func() bool {
		return p.SnapshotNow().Backends[1].State == StateDraining
	})
	for i := 0; i < 6; i++ {
		resp := postTxn(t, ts, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get(BackendHeader); got != "0" {
			t.Fatalf("request routed to draining backend (header %q)", got)
		}
	}
	if n := b1.txns.Load(); n != 0 {
		t.Fatalf("draining backend served %d transactions", n)
	}
	// Draining is not dead: the proxy's own health is degraded, not down.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv struct {
		Status   string `json:"status"`
		Routable int    `json:"routable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "degraded" || hv.Routable != 1 {
		t.Fatalf("proxy health = %+v", hv)
	}
}

func TestProxyMetricsFormats(t *testing.T) {
	b0 := newStub(t, okSignal())
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL}, Policy: "threshold"})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	postTxn(t, ts, "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"loadctlproxy_requests_total 1",
		"loadctlproxy_relayed_total 1",
		`loadctlproxy_backend_relayed_total{backend="0"} 1`,
		"loadctlproxy_threshold",
		"loadctlproxy_alive_backends 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("Prometheus text missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Policy != "threshold" || snap.Totals.Relayed != 1 || len(snap.Backends) != 1 {
		t.Fatalf("JSON snapshot: %+v", snap)
	}
	if snap.Threshold <= 0 {
		t.Fatalf("threshold policy θ missing from snapshot: %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status = %d, want 400", resp.StatusCode)
	}
}

func TestProxyTotalsIdentity(t *testing.T) {
	b0 := newStub(t, okSignal())
	b1 := newStub(t, okSignal())
	p := newTestProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}, DeadAfter: 1})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		postTxn(t, ts, "")
	}
	b0.failHealth.Store(true)
	b1.failHealth.Store(true)
	b0.ts.Close()
	b1.ts.Close()
	for i := 0; i < 5; i++ {
		postTxn(t, ts, "")
	}
	snap := p.SnapshotNow()
	tt := snap.Totals
	if tt.Requests != tt.Relayed+tt.FastRejectedOverload+tt.FastRejectedNoBackend+tt.Failed+tt.Disconnects {
		t.Fatalf("identity violated: %+v", tt)
	}
	var fwd, relayed, errs uint64
	for _, bs := range snap.Backends {
		fwd += bs.Forwarded
		relayed += bs.Relayed
		errs += bs.Errors
		if bs.Forwarded != bs.Relayed+bs.Errors {
			t.Fatalf("backend %d identity violated: %+v", bs.Index, bs)
		}
	}
	if relayed != tt.Relayed {
		t.Fatalf("backend relays %d != proxy relays %d", relayed, tt.Relayed)
	}
	if math.IsNaN(snap.MeanLatencySeconds) || snap.MeanLatencySeconds <= 0 {
		t.Fatalf("mean latency = %v", snap.MeanLatencySeconds)
	}
}

func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends: want error")
	}
	if _, err := New(Config{Backends: []string{"a", "a"}}); err == nil {
		t.Error("duplicate backends: want error")
	}
	if _, err := New(Config{Backends: []string{"x"}, Policy: "nope"}); err == nil {
		t.Error("unknown policy: want error")
	}
	p, err := New(Config{Backends: []string{"127.0.0.1:9999/"}})
	if err != nil {
		t.Fatalf("bare host:port backend: %v", err)
	}
	defer p.Close()
	if got := p.SnapshotNow().Backends[0].URL; got != "http://127.0.0.1:9999" {
		t.Fatalf("normalized URL = %q", got)
	}
}
