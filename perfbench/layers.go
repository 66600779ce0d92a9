package main

import (
	"sort"

	"github.com/tpctl/loadctl/perfbench/span"
)

// layerMetrics attributes the traced phase's time to layers. The harness
// keeps spans only for sampled timed requests (span.Sampled). The
// controller's updates are not tied to requests and all count. A layer
// absent from the workload reads 0.
//
// unjoined counts the sampled committed requests the first tier has no
// handler span for; the trace join is sound only when it is 0.
func layerMetrics(ph phaseResult, serverFiles, proxyFiles [][]span.Span, proxied bool) (m map[string]float64, unjoined int) {
	m = map[string]float64{}
	server := index(serverFiles)
	proxy := index(proxyFiles)

	// net: the client's round trip minus the first tier's handler span.
	first := server
	if proxied {
		first = proxy
	}
	var net []int64
	for i, id := range ph.ids {
		if r, ok := first[id]; ok {
			net = append(net, ph.latNanos[i]-r.handler.Dur())
		} else if span.Sampled(id) {
			unjoined++
		}
	}
	m["net.overhead_us_p50"] = p(net, 0.50)

	// server: handler spans, and the stretches before the first and
	// after the last Exec attempt.
	var handler, pre, post []int64
	var query, update, exec []int64
	var attempts, commits int
	for _, r := range server {
		h, kids := r.handler, r.children
		handler = append(handler, h.Dur())
		if len(kids) == 0 {
			continue
		}
		firstStart, lastEnd := kids[0].Start, kids[0].End
		for _, k := range kids {
			firstStart = min(firstStart, k.Start)
			lastEnd = max(lastEnd, k.End)
			if k.Name != span.Exec {
				continue
			}
			attempts++
			if k.Flags&span.FlagOK != 0 {
				commits++
			}
			exec = append(exec, k.Dur())
			if k.Flags&span.FlagUpdate != 0 {
				update = append(update, k.Dur())
			} else {
				query = append(query, k.Dur())
			}
		}
		pre = append(pre, firstStart-h.Start)
		post = append(post, h.End-lastEnd)
	}
	m["server.handler_us_p50"] = p(handler, 0.50)
	m["server.handler_us_p99"] = p(handler, 0.99)
	m["server.pre_exec_us_p50"] = p(pre, 0.50)
	m["server.post_exec_us_p50"] = p(post, 0.50)
	m["engine.exec_query_us_p50"] = p(query, 0.50)
	m["engine.exec_update_us_p50"] = p(update, 0.50)
	m["engine.exec_us_p99"] = p(exec, 0.99)
	m["engine.useful_frac"] = 0
	if attempts > 0 {
		m["engine.useful_frac"] = float64(commits) / float64(attempts)
	}

	// ctl: every Update any server's controller made.
	var ctl []int64
	limits := 0.0
	for _, f := range serverFiles {
		for _, s := range f {
			if s.Name == span.CtlUpdate {
				ctl = append(ctl, s.Dur())
				limits += s.Val
			}
		}
	}
	m["ctl.updates"] = float64(len(ctl))
	m["ctl.update_us_p50"] = p(ctl, 0.50)
	m["ctl.limit_mean"] = 0
	if len(ctl) > 0 {
		m["ctl.limit_mean"] = limits / float64(len(ctl))
	}

	// cluster: the proxy's handler, its upstream RoundTrips, and what
	// is left of the handler once they are taken out.
	var relay, upstream, self []int64
	for _, r := range proxy {
		relay = append(relay, r.handler.Dur())
		up := int64(0)
		for _, k := range r.children {
			if k.Name == span.Upstream {
				upstream = append(upstream, k.Dur())
				up += k.Dur()
			}
		}
		self = append(self, r.handler.Dur()-up)
	}
	dials := 0
	for _, f := range proxyFiles {
		for _, s := range f {
			if s.Name == span.Dial {
				dials++
			}
		}
	}
	m["cluster.handler_us_p50"] = p(relay, 0.50)
	m["cluster.upstream_us_p50"] = p(upstream, 0.50)
	m["cluster.relay_self_us_p50"] = p(self, 0.50)
	m["cluster.upstream_dials"] = float64(dials)
	return m, unjoined
}

// request is one timed request's handler span and the spans it parented.
type request struct {
	handler  span.Span
	children []span.Span
}

// index joins each file's spans to their parents (span IDs are unique
// only within a process) and keys the timed requests by trace ID.
func index(files [][]span.Span) map[uint64]*request {
	out := map[uint64]*request{}
	for _, f := range files {
		byID := map[uint32]*request{}
		for _, s := range f {
			if s.Name == span.Handler {
				r := &request{handler: s}
				byID[s.ID] = r
				out[s.Trace] = r
			}
		}
		for _, s := range f {
			if r, ok := byID[s.Parent]; ok && s.Parent != 0 {
				r.children = append(r.children, s)
			}
		}
	}
	return out
}

// p is the q-quantile of nanosecond durations, in microseconds.
func p(ns []int64, q float64) float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return quantile(ns, q) / 1e3
}
