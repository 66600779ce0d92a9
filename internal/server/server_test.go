package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/loadsig"
)

// newTestServer builds a server over a fresh store with a static
// controller (deterministic limit) and returns it with its HTTP front.
func newTestServer(t *testing.T, limit float64, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	store := kv.NewStore(256)
	cfg := Config{
		Controller: core.NewStatic(limit),
		Engine:     NewOCC(store),
		Items:      store.Size(),
		Interval:   10 * time.Second, // effectively frozen during handler tests
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postTxn(t *testing.T, base, params string) (int, txnResponse) {
	t.Helper()
	resp, err := http.Post(base+"/txn"+params, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr txnResponse
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decoding /txn response: %v", err)
		}
	}
	return resp.StatusCode, tr
}

func TestTxnEndpointCommits(t *testing.T) {
	_, ts := newTestServer(t, 64, nil)
	code, tr := postTxn(t, ts.URL, "?class=update&k=4")
	if code != http.StatusOK || tr.Status != "committed" {
		t.Fatalf("got %d/%q, want 200/committed", code, tr.Status)
	}
	if tr.Class != "update" || tr.Attempts < 1 {
		t.Fatalf("bad response %+v", tr)
	}
	code, tr = postTxn(t, ts.URL, "?class=query&k=2")
	if code != http.StatusOK || tr.Class != "query" {
		t.Fatalf("query: got %d/%+v", code, tr)
	}
	// Unspecified class/k falls back to the mix.
	if code, tr = postTxn(t, ts.URL, ""); code != http.StatusOK {
		t.Fatalf("mixed txn: got %d/%+v", code, tr)
	}
}

func TestTxnEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, 64, nil)
	if code, _ := postTxn(t, ts.URL, "?class=frobnicate"); code != http.StatusBadRequest {
		t.Fatalf("bad class: got %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/txn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /txn: got %d, want 405", resp.StatusCode)
	}
}

func TestTxnRejectMode(t *testing.T) {
	// Limit 0 with non-blocking admission: every transaction is shed with
	// 429 and the rejection is visible in gate stats and totals.
	_, ts := newTestServer(t, 0, func(c *Config) { c.Reject = true })
	code, tr := postTxn(t, ts.URL, "?class=update")
	if code != http.StatusTooManyRequests || tr.Status != "rejected" {
		t.Fatalf("got %d/%q, want 429/rejected", code, tr.Status)
	}
	snap := getSnapshot(t, ts.URL)
	if snap.Totals.Rejected != 1 || snap.Gate.Rejected != 1 {
		t.Fatalf("rejection not counted: totals=%d gate=%d", snap.Totals.Rejected, snap.Gate.Rejected)
	}
}

func TestTxnQueueTimeout(t *testing.T) {
	// Limit 0 with blocking admission and a tiny queue budget: requests
	// time out with 503.
	_, ts := newTestServer(t, 0, func(c *Config) { c.QueueTimeout = 20 * time.Millisecond })
	code, tr := postTxn(t, ts.URL, "?class=update")
	if code != http.StatusServiceUnavailable || tr.Status != "timeout" {
		t.Fatalf("got %d/%q, want 503/timeout", code, tr.Status)
	}
	snap := getSnapshot(t, ts.URL)
	if snap.Totals.Timeouts != 1 {
		t.Fatalf("timeout not counted: %d", snap.Totals.Timeouts)
	}
}

func getSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 48, nil)
	for i := 0; i < 5; i++ {
		postTxn(t, ts.URL, "?class=update&k=2")
	}

	snap := getSnapshot(t, ts.URL)
	if snap.Limit != 48 {
		t.Fatalf("limit = %v, want 48", snap.Limit)
	}
	if snap.Totals.Requests != 5 || snap.Totals.Commits != 5 {
		t.Fatalf("totals = %+v, want 5 requests and commits", snap.Totals)
	}
	if snap.Engine != "kv-occ" || snap.Controller != "static(48)" {
		t.Fatalf("identity = %q/%q", snap.Engine, snap.Controller)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"loadctl_limit 48",
		"loadctl_commits_total 5",
		"loadctl_interval_throughput",
		"loadctl_interval_resp_seconds",
		"# TYPE loadctl_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsIntervalCloses(t *testing.T) {
	// A fast measurement interval must close and expose throughput and
	// response time for traffic that ran inside it.
	_, ts := newTestServer(t, 64, func(c *Config) { c.Interval = 50 * time.Millisecond })
	deadline := time.Now().Add(10 * time.Second)
	for {
		postTxn(t, ts.URL, "?class=update&k=2")
		snap := getSnapshot(t, ts.URL)
		if snap.Interval.T > 0 && snap.Interval.Commits > 0 {
			if snap.Interval.Throughput <= 0 {
				t.Fatalf("interval closed with commits but zero throughput: %+v", snap.Interval)
			}
			if snap.Interval.RespTime <= 0 {
				t.Fatalf("interval closed with commits but zero response time: %+v", snap.Interval)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no measurement interval with traffic ever closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failEngine aborts every attempt — the all-conflict regime.
type failEngine struct{}

func (failEngine) Name() string { return "always-abort" }

func (failEngine) Exec(ctx context.Context, spec TxnSpec) error { return ErrAborted }

// TestAbortRateAllAbortedInterval pins the commits==0 fallback: an
// interval where every attempt aborted must report aborts-per-attempt,
// which is exactly 1.0 — not the raw abort count the old code leaked.
func TestAbortRateAllAbortedInterval(t *testing.T) {
	s, ts := newTestServer(t, 64, func(c *Config) {
		c.Engine = failEngine{}
		c.MaxRetry = -1 // no restarts: one attempt per request
	})
	for i := 0; i < 5; i++ {
		if code, _ := postTxn(t, ts.URL, "?class=update&k=2"); code != http.StatusConflict {
			t.Fatalf("got %d, want 409", code)
		}
	}
	s.tick(time.Now()) // close the measurement interval deterministically
	snap := getSnapshot(t, ts.URL)
	if snap.Interval.Commits != 0 || snap.Interval.Aborts != 5 {
		t.Fatalf("interval counts = %d/%d, want 0 commits, 5 aborts", snap.Interval.Commits, snap.Interval.Aborts)
	}
	if snap.Interval.AbortRate != 1 {
		t.Fatalf("AbortRate = %v, want 1.0 (aborts per attempt with no commit)", snap.Interval.AbortRate)
	}
	// And an idle interval reports 0, not NaN or a stale value.
	s.tick(time.Now())
	if snap = getSnapshot(t, ts.URL); snap.Interval.AbortRate != 0 {
		t.Fatalf("idle interval AbortRate = %v, want 0", snap.Interval.AbortRate)
	}
}

// TestMetricsHistoryContract pins the /metrics format contract: history=1
// is only valid with format=json — it must never silently switch the
// Prometheus text endpoint to JSON — and unknown formats are refused.
func TestMetricsHistoryContract(t *testing.T) {
	_, ts := newTestServer(t, 8, nil)
	get := func(params string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type")
	}
	if code, _ := get("?history=1"); code != http.StatusBadRequest {
		t.Fatalf("bare history=1: got %d, want 400", code)
	}
	if code, ct := get("?format=json&history=1"); code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("format=json&history=1: got %d/%q, want 200/JSON", code, ct)
	}
	if code, ct := get(""); code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("default: got %d/%q, want 200/text", code, ct)
	}
	if code, _ := get("?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: got %d, want 400", code)
	}
}

// TestClientDisconnectCounted drops the client mid-transaction and checks
// the outcome is classified as a disconnect, not an engine error.
func TestClientDisconnectCounted(t *testing.T) {
	_, ts := newTestServer(t, 64, func(c *Config) {
		c.Engine = slowEngine{inner: c.Engine, delay: 300 * time.Millisecond}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/txn?class=update&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected the canceled request to fail client-side")
	}
	// The handler finishes after the client is gone; poll for the count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := getSnapshot(t, ts.URL)
		if snap.Totals.Disconnects == 1 {
			if snap.Totals.Commits != 0 {
				t.Fatalf("disconnected transaction also committed: %+v", snap.Totals)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never counted: %+v", snap.Totals)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStripedCountersReconcile hammers /txn concurrently and checks the
// striped counters aggregate without drift: totals match the offered
// traffic exactly, and once all measurement intervals close, the interval
// history sums to the same commit total the monotone counters report.
func TestStripedCountersReconcile(t *testing.T) {
	const (
		workers = 16
		each    = 15
	)
	_, ts := newTestServer(t, 1024, func(c *Config) {
		c.Engine = slowEngine{inner: c.Engine, delay: 2 * time.Millisecond}
		c.Interval = 25 * time.Millisecond
		c.HistoryLen = 10000
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				code, _ := postTxn(t, ts.URL, "?class=query&k=2")
				if code != http.StatusOK {
					t.Errorf("query got %d", code)
				}
			}
		}()
	}
	wg.Wait()

	snap := getSnapshot(t, ts.URL)
	if snap.Totals.Requests != workers*each || snap.Totals.Commits != workers*each {
		t.Fatalf("totals = %+v, want %d requests and commits", snap.Totals, workers*each)
	}

	// Interval history must converge to the same total once the tail
	// interval closes — the accounting identity between the striped
	// open-interval deltas and the monotone totals.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics?format=json&history=1")
		if err != nil {
			t.Fatal(err)
		}
		var hs Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var sum uint64
		sawLoad := false
		for _, iv := range hs.History {
			sum += iv.Commits
			if iv.Load > 0 {
				sawLoad = true
			}
		}
		if sum == hs.Totals.Commits {
			if !sawLoad {
				t.Fatal("no interval ever saw a positive load integral")
			}
			return
		}
		if sum > hs.Totals.Commits {
			t.Fatalf("history sums to %d commits, above the total %d", sum, hs.Totals.Commits)
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never converged: %d of %d commits in closed intervals", sum, hs.Totals.Commits)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestControllerEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 32, nil)

	// Inspect.
	resp, err := http.Get(ts.URL + "/controller")
	if err != nil {
		t.Fatal(err)
	}
	var view controllerView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Controller != "static(32)" || view.Limit != 32 {
		t.Fatalf("view = %+v", view)
	}

	// Switch to PA, carrying the current limit over as the initial bound.
	resp, err = http.Post(ts.URL+"/controller", "application/json",
		strings.NewReader(`{"controller":"pa"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("switch: got %d (%v)", resp.StatusCode, sw)
	}
	if sw["controller"] != "parabola-approximation" {
		t.Fatalf("switch installed %v", sw["controller"])
	}
	if got := s.Limit(); got != 32 {
		t.Fatalf("switch moved the limit to %v, want carried-over 32", got)
	}

	// Unknown controller name is a client error and leaves state alone.
	resp, err = http.Post(ts.URL+"/controller", "application/json",
		strings.NewReader(`{"controller":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad switch: got %d, want 400", resp.StatusCode)
	}
	snap := getSnapshot(t, ts.URL)
	if snap.Controller != "parabola-approximation" {
		t.Fatalf("failed switch changed controller to %q", snap.Controller)
	}
}

// TestRequestBodyCap checks that /txn and POST /controller read at most
// maxBodyBytes of a JSON body: a 2 MiB body is refused with 413 instead
// of being read and decoded whole.
func TestRequestBodyCap(t *testing.T) {
	_, ts := newTestServer(t, 64, nil)
	big := `{"pad":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, path := range []string{"/txn", "/controller"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a 2 MiB body: got %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestNewValidation(t *testing.T) {
	store := kv.NewStore(8)
	if _, err := New(Config{Engine: NewOCC(store), Items: 8}); err == nil {
		t.Fatal("missing controller accepted")
	}
	if _, err := New(Config{Controller: core.NewStatic(1), Items: 8}); err == nil {
		t.Fatal("missing engine accepted")
	}
	if _, err := New(Config{Controller: core.NewStatic(1), Engine: NewOCC(store)}); err == nil {
		t.Fatal("zero items accepted")
	}
}

func TestHealthzLoadSignal(t *testing.T) {
	s, ts := newTestServer(t, 4, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var sig loadsig.Signal
	if err := json.NewDecoder(resp.Body).Decode(&sig); err != nil {
		t.Fatal(err)
	}
	if sig.Status != loadsig.StatusOK || sig.Limit != 4 {
		t.Fatalf("signal = %+v", sig)
	}
	// The same signal rides the response header, parseable.
	hdr := resp.Header.Get(loadsig.Header)
	if hdr == "" {
		t.Fatal("no load-signal header on /healthz")
	}
	if _, err := loadsig.Parse(hdr); err != nil {
		t.Fatalf("header %q does not parse: %v", hdr, err)
	}

	// /txn answers carry it too.
	txnResp, err := http.Post(ts.URL+"/txn", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, txnResp.Body)
	txnResp.Body.Close()
	got, err := loadsig.Parse(txnResp.Header.Get(loadsig.Header))
	if err != nil {
		t.Fatalf("/txn signal header: %v", err)
	}
	if got.Limit != 4 {
		t.Fatalf("/txn signal = %+v", got)
	}

	// Draining flips /healthz to 503 with status "draining".
	s.BeginDrain()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp2.StatusCode)
	}
	var dsig loadsig.Signal
	if err := json.NewDecoder(resp2.Body).Decode(&dsig); err != nil {
		t.Fatal(err)
	}
	if !dsig.Draining() {
		t.Fatalf("draining signal = %+v", dsig)
	}
	// Draining does not stop transaction execution: in-flight work (and
	// stragglers on open connections) still commits during the drain.
	if code, _ := postTxn(t, ts.URL, "?shape=query&k=1"); code != http.StatusOK {
		t.Fatalf("txn during drain = %d, want 200", code)
	}
}

func TestLoadSignalShedState(t *testing.T) {
	s, ts := newTestServer(t, 1, func(cfg *Config) {
		cfg.Interval = 50 * time.Millisecond
		cfg.Reject = true
		cfg.Engine = slowEngine{inner: cfg.Engine, delay: 400 * time.Millisecond}
		cfg.Classes = []ClassConfig{
			{Name: "interactive", Weight: 3, Priority: 0},
			{Name: "batch", Weight: 1, Priority: 2},
		}
	})

	// Occupy the single slot for 400ms, then shed a batch arrival against
	// the full gate (reject mode answers 429 immediately).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postTxn(t, ts.URL, "?class=interactive&k=1")
	}()
	time.Sleep(100 * time.Millisecond) // let the slot be taken
	if code, _ := postTxn(t, ts.URL, "?class=batch&k=1"); code != http.StatusTooManyRequests {
		t.Fatalf("batch at a full gate = %d, want 429", code)
	}

	// After the next tick the signal must list batch — and only batch —
	// as shedding.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sig := s.loadSignal().sig
		if sig.Shed("batch") {
			if sig.Shed("interactive") {
				t.Fatalf("interactive wrongly marked shedding: %+v", sig)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never marked shedding; signal %+v", sig)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
}
