package loadgen

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/workload"
)

// stubServer mimics the /txn contract: counts requests per class and
// answers a rotating slice of statuses.
type stubServer struct {
	queries, updates atomic.Uint64
	seq              atomic.Uint64
	statuses         []int
}

func (s *stubServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/txn" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		switch r.URL.Query().Get("class") {
		case "query":
			s.queries.Add(1)
		case "update":
			s.updates.Add(1)
		}
		code := http.StatusOK
		if len(s.statuses) > 0 {
			code = s.statuses[int(s.seq.Add(1)-1)%len(s.statuses)]
		}
		w.WriteHeader(code)
		w.Write([]byte(`{"status":"stub"}`))
	})
}

func TestOpenLoopRate(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	const rate, secs = 300.0, 2.0
	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Open,
		Rate:     workload.Constant{V: rate},
		Duration: time.Duration(secs * float64(time.Second)),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rate * secs
	// A Poisson count over 600 expected arrivals has σ≈25; a ±40% band
	// tolerates scheduler noise on loaded CI machines.
	if float64(rep.Sent) < 0.6*want || float64(rep.Sent) > 1.4*want {
		t.Fatalf("open loop sent %d requests, want about %.0f", rep.Sent, want)
	}
	// The stub commits everything it answers; a request still in flight
	// at run end is accounted as unresolved rather than lost.
	if rep.Committed+rep.Unresolved != rep.Sent || rep.Errors != 0 {
		t.Fatalf("committed=%d unresolved=%d != sent=%d (errors=%d)",
			rep.Committed, rep.Unresolved, rep.Sent, rep.Errors)
	}
	if rep.Throughput <= 0 || rep.LatMean <= 0 {
		t.Fatalf("empty latency stats: %+v", rep)
	}
}

func TestOpenLoopJumpSchedule(t *testing.T) {
	// Rate 0 before the jump, high after: all traffic must arrive in the
	// second half, proving the schedule is evaluated on the live clock.
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	var firstReq atomic.Int64 // ms since start of the first request
	start := time.Now()
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		firstReq.CompareAndSwap(0, time.Since(start).Milliseconds())
		stub.handler().ServeHTTP(w, r)
	}))
	defer wrapped.Close()

	rep, err := Run(context.Background(), Config{
		URL:      wrapped.URL,
		Mode:     Open,
		Rate:     workload.Jump{At: 0.5, Before: 0, After: 400},
		Duration: time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no traffic after the jump")
	}
	if got := firstReq.Load(); got < 450 {
		t.Fatalf("first request at %dms, before the 500ms jump", got)
	}
}

func TestClosedLoop(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Closed,
		Clients:  8,
		Think:    sim.Constant{V: 0.01},
		Duration: 500 * time.Millisecond,
		Seed:     5,
		Mix: workload.Mix{
			K:         workload.Constant{V: 4},
			QueryFrac: workload.Constant{V: 1}, // all queries
			WriteFrac: workload.Constant{V: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 clients cycling ~10ms think + fast request for 500ms ≈ hundreds of
	// requests; anything above a couple dozen proves the population loops.
	if rep.Sent < 50 {
		t.Fatalf("closed loop sent only %d requests", rep.Sent)
	}
	if rep.Updates != 0 || rep.Queries != rep.Sent {
		t.Fatalf("mix ignored: queries=%d updates=%d sent=%d", rep.Queries, rep.Updates, rep.Sent)
	}
	if stub.updates.Load() != 0 {
		t.Fatalf("server saw %d updates from an all-query mix", stub.updates.Load())
	}
}

func TestStatusMapping(t *testing.T) {
	stub := &stubServer{statuses: []int{
		http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusConflict, http.StatusTeapot,
	}}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Closed,
		Clients:  1,
		Think:    sim.Constant{V: 0},
		Duration: 300 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < 5 {
		t.Fatalf("only %d requests sent", rep.Sent)
	}
	if rep.Committed == 0 || rep.Rejected == 0 || rep.Timeouts == 0 || rep.Aborted == 0 || rep.Errors == 0 {
		t.Fatalf("status classes not all populated: %+v", rep)
	}
	// Requests still on the wire at run end land in Unresolved, so the
	// identity is exact — no tolerance needed.
	total := rep.Committed + rep.Rejected + rep.Timeouts + rep.Aborted + rep.Errors + rep.Unresolved
	if total != rep.Sent {
		t.Fatalf("classified %d of %d sent: %+v", total, rep.Sent, rep)
	}
}

// TestReportReconcilesWhenCutShort runs against a server so slow that the
// run ends with requests still in flight: their outcomes are unknowable,
// but the report must account for every sent request exactly via the
// Unresolved counter instead of quietly leaking them.
func TestReportReconcilesWhenCutShort(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	defer close(release)

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Open,
		Rate:     workload.Constant{V: 200},
		Duration: 200 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if rep.Unresolved == 0 {
		t.Fatalf("a run cut short mid-flight recorded no unresolved requests: %+v", rep)
	}
	total := rep.Committed + rep.Rejected + rep.Timeouts + rep.Aborted + rep.Errors + rep.Unresolved
	if total != rep.Sent {
		t.Fatalf("report does not reconcile: sent=%d but outcomes sum to %d (%+v)", rep.Sent, total, rep)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Mode: Open}); err == nil {
		t.Fatal("missing URL accepted")
	}
	if _, err := Run(context.Background(), Config{URL: "http://x", Mode: Open}); err == nil {
		t.Fatal("open loop without rate accepted")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Mode: "open", Duration: 2, Sent: 10, Committed: 8, Throughput: 4}
	s := r.String()
	if !strings.Contains(s, "committed=8") || !strings.Contains(s, "open-loop") {
		t.Fatalf("unusable report string %q", s)
	}
}

// TestCoordinatedOmissionCorrection drives issueRequest with an intended
// send slot in the past — the situation after a generator stall — and
// checks that the corrected latency includes the missed wait while the raw
// latency stays at the actual round-trip time. Measuring only from the
// actual send is the coordinated-omission trap: the stall's delay would
// vanish from the percentiles exactly when the system was slowest.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	ts := httptest.NewServer((&stubServer{}).handler())
	defer ts.Close()

	col := newCollector()
	const lag = 150 * time.Millisecond
	for i := 0; i < 4; i++ {
		intended := time.Now().Add(-lag) // generator woke up lag late
		if st := issueRequest(context.Background(), ts.Client(), ts.URL, col, txnParams{Class: "query"}, intended); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	rep := col.report(Open, time.Second)
	if rep.LatMean < lag.Seconds() {
		t.Fatalf("corrected mean %.1fms lost the %.0fms schedule lag", 1e3*rep.LatMean, 1e3*lag.Seconds())
	}
	if rep.LatRawMean >= lag.Seconds() {
		t.Fatalf("raw mean %.1fms includes schedule lag; want actual round-trip only", 1e3*rep.LatRawMean)
	}
	if rep.LatP99 < rep.LatRawP99 {
		t.Fatalf("corrected p99 %.1fms below raw p99 %.1fms", 1e3*rep.LatP99, 1e3*rep.LatRawP99)
	}

	// Without an intended slot (closed loop, scenario probes) both tracks
	// must agree.
	col = newCollector()
	if st := issueRequest(context.Background(), ts.Client(), ts.URL, col, txnParams{Class: "query"}, time.Time{}); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	rep = col.report(Closed, time.Second)
	if rep.LatMean != rep.LatRawMean {
		t.Fatalf("no schedule, but corrected mean %.3fms != raw mean %.3fms", 1e3*rep.LatMean, 1e3*rep.LatRawMean)
	}
}

// TestLatencyQuantileResolution checks that the reported quantiles
// resolve sub-millisecond latencies: against a stub answering in ~0.1 ms
// the median must not sit far above the mean. On 1 ms linear buckets
// every such latency read as p50 = 0.5 ms, whatever the mean. The stub
// spins rather than sleeps (sleeps are ~1 ms-granular), and its 100 µs
// keeps latencies clear of the histogram's bottom bucket (≤ 50 µs),
// which a bare loopback round trip can fall into.
func TestLatencyQuantileResolution(t *testing.T) {
	stub := (&stubServer{}).handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
		}
		stub.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Closed,
		Clients:  2,
		Think:    sim.Constant{V: 0.001},
		Duration: 300 * time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 {
		t.Fatal("no committed requests")
	}
	if rep.LatP50 > 2*rep.LatMean {
		t.Fatalf("p50 %.3fms against a mean of %.3fms: quantiles do not resolve the latencies",
			1e3*rep.LatP50, 1e3*rep.LatMean)
	}
}

// TestConnectionReuse checks that a run without a caller-supplied client
// keeps one pooled connection per concurrent request: zero-think
// closed-loop clients must not dial more connections than there are
// clients. http.DefaultTransport keeps 2 idle connections per host, so
// there nearly every request dialled. The scenario case runs the same
// population as two closed-loop streams.
func TestConnectionReuse(t *testing.T) {
	const clients = 64
	serve := func(t *testing.T) (string, *atomic.Uint64) {
		var dials atomic.Uint64
		ts := httptest.NewUnstartedServer((&stubServer{}).handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		return ts.URL, &dials
	}
	check := func(t *testing.T, committed uint64, dials *atomic.Uint64) {
		if committed == 0 {
			t.Fatal("no committed requests")
		}
		if d := dials.Load(); d > clients {
			t.Fatalf("%d connections dialled for %d clients (%d commits)", d, clients, committed)
		}
	}
	t.Run("run", func(t *testing.T) {
		url, dials := serve(t)
		rep, err := Run(context.Background(), Config{
			URL:      url,
			Mode:     Closed,
			Clients:  clients,
			Think:    sim.Constant{V: 0},
			Duration: 500 * time.Millisecond,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rep.Committed, dials)
	})
	t.Run("scenario", func(t *testing.T) {
		url, dials := serve(t)
		sc := &Scenario{Name: "reuse", DurationSeconds: 0.5, Streams: []StreamConfig{
			{Name: "a", Mode: "closed", Clients: clients / 2},
			{Name: "b", Mode: "closed", Clients: clients / 2},
		}}
		rep, err := RunScenario(context.Background(), url, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rep.Total.Committed, dials)
	})
}

// TestOpenLoopPacesAbsoluteSchedule checks that open-loop pacing does not
// slow down when responses are slow: with arrivals fired from an absolute
// intended-time schedule, a server stalling every request must not reduce
// the offered request count (the generator would otherwise need a response
// before scheduling the next arrival).
func TestOpenLoopPacesAbsoluteSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond) // far slower than the arrival gap
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	const rate, secs = 200.0, 1.0
	rep, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Open,
		Rate:     workload.Constant{V: rate},
		Duration: time.Duration(secs * float64(time.Second)),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if float64(rep.Sent) < 0.6*rate*secs {
		t.Fatalf("slow responses throttled the open loop: sent %d, want about %.0f", rep.Sent, rate*secs)
	}
}

// TestTraceMinting checks that Config.Trace stamps a parseable
// X-Loadctl-Trace ID on every request, making the generator the tracing
// edge of the request path.
func TestTraceMinting(t *testing.T) {
	var missing, seen atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := reqtrace.FromRequest(r); ok {
			seen.Add(1)
		} else {
			missing.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	if _, err := Run(context.Background(), Config{
		URL:      ts.URL,
		Mode:     Closed,
		Clients:  2,
		Think:    sim.Constant{V: 0.001},
		Duration: 200 * time.Millisecond,
		Seed:     2,
		Trace:    true,
	}); err != nil {
		t.Fatal(err)
	}
	if seen.Load() == 0 || missing.Load() != 0 {
		t.Fatalf("trace minting: %d requests carried an ID, %d did not", seen.Load(), missing.Load())
	}
}
