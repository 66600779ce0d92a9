// Tracedsrv is the benchmark's traced harness. It builds the same serving
// stack as loadctld (-mode server) or loadctlproxy (-mode proxy) through
// server.New and cluster.New, and wraps the interfaces between layers in
// timing decorators: the http.Handler, the server.Engine, the
// core.Controller and the proxy's outbound http.RoundTripper. The
// program's own code is unchanged; only the seams are timed.
//
// The handler decorator puts its span ID in the request context, so the
// engine and transport decorators can name it as their parent, and keys
// the span by the request's X-Loadctl-Trace ID, which the proxy forwards
// to the backend. Spans stay in memory; on SIGTERM or SIGINT the harness
// stops serving, writes them to -spans and exits.
//
//	tracedsrv -mode server -addr 127.0.0.1:18500 -controller pa -spans s.bin
//	tracedsrv -mode proxy -addr 127.0.0.1:18400 -backends 127.0.0.1:18500 -spans p.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tpctl/loadctl/internal/cluster"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
	"github.com/tpctl/loadctl/internal/workload"
	"github.com/tpctl/loadctl/perfbench/span"
)

// maxSpans bounds the spans kept in memory (48 bytes each); a run that
// records more fails rather than report a truncated picture.
const maxSpans = 1 << 20

func main() {
	var (
		mode       = flag.String("mode", "server", "stack to build: server (as loadctld) or proxy (as loadctlproxy)")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		spansOut   = flag.String("spans", "", "file the spans are written to on exit; required")
		controller = flag.String("controller", "pa", "server: pa or static")
		initial    = flag.Float64("initial", 0, "server: initial bound (required for static)")
		items      = flag.Int("items", 4096, "server: store size D")
		maxRetry   = flag.Int("maxretry", 3, "server: restart budget per request on CC abort")
		seed       = flag.Int64("seed", 1, "server: access-set sampling seed")
		backends   = flag.String("backends", "", "proxy: comma-separated backend addresses")
	)
	flag.Parse()
	if *spansOut == "" {
		log.Fatal("tracedsrv: -spans is required")
	}
	rec := span.NewRecorder(maxSpans)

	var (
		h    http.Handler
		stop func()
	)
	switch *mode {
	case "server":
		ctrl, err := buildController(*controller, *initial)
		if err != nil {
			log.Fatal(err)
		}
		// The stack loadctl.NewServer builds for loadctld's defaults.
		store := kv.NewStoreShards(*items, 0)
		eng, err := server.NewEngine("occ", store)
		if err != nil {
			log.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Controller:      &tracedController{next: ctrl, rec: rec},
			Engine:          &tracedEngine{next: eng, rec: rec},
			Items:           *items,
			ClassController: *controller,
			Mix:             workload.DefaultMix(),
			MaxRetry:        *maxRetry,
			ReqTrace:        reqtrace.Config{},
			Seed:            *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		h, stop = srv.Handler(), srv.Close
	case "proxy":
		var urls []string
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		// loadctlproxy's flag defaults, with the proxy's default transport
		// made to record its dials.
		dialer := &net.Dialer{}
		p, err := cluster.New(cluster.Config{
			Backends:       urls,
			Policy:         "threshold",
			HealthInterval: 500 * time.Millisecond,
			DeadAfter:      2,
			Transport: &tracedTransport{rec: rec, next: &http.Transport{
				MaxIdleConnsPerHost: 256,
				DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
					start := rec.Now()
					c, err := dialer.DialContext(ctx, network, address)
					rec.Add(span.Span{ID: rec.NewID(), Name: span.Dial, Start: start, End: rec.Now()})
					return c, err
				},
			}},
		})
		if err != nil {
			log.Fatal(err)
		}
		h, stop = p.Handler(), p.Close
	default:
		log.Fatalf("tracedsrv: unknown -mode %q (want server or proxy)", *mode)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tracedsrv: listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: &tracedHandler{next: h, rec: rec}}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		log.Fatalf("tracedsrv: serve: %v", err)
	}
	if err := hs.Close(); err != nil {
		log.Printf("tracedsrv: close: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tracedsrv: serve: %v", err)
	}
	stop()
	if err := rec.WriteFile(*spansOut); err != nil {
		log.Fatal(err)
	}
}

// buildController mirrors loadctld's -controller pa|static with its
// default -lo/-hi clamp.
func buildController(name string, initial float64) (core.Controller, error) {
	switch name {
	case "pa":
		cfg := core.DefaultPAConfig()
		if initial > 0 {
			cfg.Initial = initial
		}
		return core.NewPA(cfg), nil
	case "static":
		if initial <= 0 {
			return nil, errors.New("tracedsrv: -controller static needs -initial > 0")
		}
		return core.NewStatic(initial), nil
	default:
		return nil, fmt.Errorf("tracedsrv: unknown controller %q (want pa or static)", name)
	}
}

// parentKey carries the enclosing Handler span's ID in a request context;
// only sampled requests carry one.
type parentKey struct{}

func parentOf(ctx context.Context) uint32 {
	id, _ := ctx.Value(parentKey{}).(uint32)
	return id
}

// tracedHandler records one Handler span per sampled /txn request
// (span.Sampled); the spans below it are kept only for those. The span
// ends when ServeHTTP returns, before net/http flushes the response, so
// the final write counts as network time.
type tracedHandler struct {
	next http.Handler
	rec  *span.Recorder
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, _ := reqtrace.FromRequest(r)
	if r.URL.Path != "/txn" || !span.Sampled(trace) {
		t.next.ServeHTTP(w, r)
		return
	}
	id := t.rec.NewID()
	start := t.rec.Now()
	t.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), parentKey{}, id)))
	t.rec.Add(span.Span{Trace: trace, ID: id, Name: span.Handler, Start: start, End: t.rec.Now()})
}

// tracedEngine records one Exec span per attempt of a sampled request.
type tracedEngine struct {
	next server.Engine
	rec  *span.Recorder
}

func (e *tracedEngine) Name() string { return e.next.Name() }

func (e *tracedEngine) Exec(ctx context.Context, spec server.TxnSpec) error {
	parent := parentOf(ctx)
	if parent == 0 {
		return e.next.Exec(ctx, spec)
	}
	start := e.rec.Now()
	err := e.next.Exec(ctx, spec)
	end := e.rec.Now()
	var flags uint8
	if spec.Update() {
		flags |= span.FlagUpdate
	}
	if err == nil {
		flags |= span.FlagOK
	}
	e.rec.Add(span.Span{ID: e.rec.NewID(), Parent: parent, Name: span.Exec, Flags: flags, Start: start, End: end})
	return err
}

// tracedController records one CtlUpdate span per Update, with the bound
// it returned.
type tracedController struct {
	next core.Controller
	rec  *span.Recorder
}

func (c *tracedController) Bound() float64 { return c.next.Bound() }
func (c *tracedController) Name() string   { return c.next.Name() }

func (c *tracedController) Update(s core.Sample) float64 {
	start := c.rec.Now()
	n := c.next.Update(s)
	c.rec.Add(span.Span{ID: c.rec.NewID(), Name: span.CtlUpdate, Start: start, End: c.rec.Now(), Val: n})
	return n
}

// tracedTransport records one Upstream span per RoundTrip relaying a
// sampled request; health probes share the transport but carry no
// parent.
type tracedTransport struct {
	next http.RoundTripper
	rec  *span.Recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := parentOf(req.Context())
	if parent == 0 {
		return t.next.RoundTrip(req)
	}
	trace, _ := reqtrace.ParseID(req.Header.Get(reqtrace.Header))
	start := t.rec.Now()
	resp, err := t.next.RoundTrip(req)
	var flags uint8
	if err == nil {
		flags = span.FlagOK
	}
	t.rec.Add(span.Span{Trace: trace, ID: t.rec.NewID(), Parent: parent, Name: span.Upstream, Flags: flags, Start: start, End: t.rec.Now()})
	return resp, err
}
