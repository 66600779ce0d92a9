// Relay fast-path plumbing: the pooled per-request scratch and the
// allocation-free helpers behind the proxy's /txn data path (handleTxn /
// forward in cluster.go).
//
// The pooling line is drawn at the transport boundary. Scratch state that
// stays inside one handleTxn call — the routable set, the policy's
// scoring slate, the response copy buffer — is pooled and reused.
// Anything that escapes into the outbound http.Request (the URL copy,
// the header map, the body reader) is allocated fresh per request: the
// transport writes the request from its own goroutine, and on a backend
// that answers before consuming the full request, Do can return while
// that goroutine is still reading the request's memory. Reusing it would
// be a data race with a remote trigger, so those few allocations are the
// audited, deliberate remainder of the relay budget.
package cluster

import (
	"sync"

	"github.com/tpctl/loadctl/internal/wire"
)

// relayScratch is the pooled working state of one relay pass.
type relayScratch struct {
	routable []int
	cands    []Candidate
	copyBuf  []byte // io.CopyBuffer scratch for relaying response bodies
}

// relayCopyBufSize matches io.Copy's internal buffer; pooling it keeps
// the response relay from allocating 32KiB per request.
const relayCopyBufSize = 32 << 10

var relayScratchPool sync.Pool

//loadctl:hotpath
func getRelayScratch() *relayScratch {
	sc, ok := relayScratchPool.Get().(*relayScratch)
	if !ok {
		sc = &relayScratch{copyBuf: make([]byte, relayCopyBufSize)} //loadctl:allocok audited: pool miss — cold start only, the steady state reuses released scratches
	}
	return sc
}

//loadctl:hotpath
func putRelayScratch(sc *relayScratch) { relayScratchPool.Put(sc) }

// queryClass returns the request's admission class: the first "class"
// query parameter, decoded as url.Values.Get("class") would, without
// allocating on plain queries.
//
//loadctl:hotpath
func queryClass(raw string) string {
	for key, val, rest, ok := wire.NextQueryPair(raw); ok; key, val, rest, ok = wire.NextQueryPair(rest) {
		if key == "class" {
			return val
		}
	}
	return ""
}
