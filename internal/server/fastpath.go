package server

import (
	"net/http"
	"strconv"
	"sync"

	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/wire"
)

// The /txn fast path: pooled per-request scratch state, a single-pass
// query parser for the committed /txn vocabulary (zero-alloc on plain
// queries), and manual JSON response rendering into a pooled buffer.
// Everything here exists to keep the steady-state request cycle free of
// per-request heap traffic; handleTxn (transport.go) is the consumer.

// txnScratch is the pooled per-request state of one /txn invocation:
// the decoded request, the sampled access set (reused slice capacity),
// the request's private RNG (by value — deriving it is arithmetic, not
// allocation) and the response render buffer.
type txnScratch struct {
	req   txnRequest
	keys  []int
	write []bool
	rng   sim.FastRNG
	buf   []byte
}

// txnScratchPool recycles scratch across requests. New is nil on
// purpose: the miss path in getTxnScratch carries the audited waiver.
var txnScratchPool sync.Pool

//loadctl:hotpath
func getTxnScratch() *txnScratch {
	sc, ok := txnScratchPool.Get().(*txnScratch)
	if !ok {
		sc = &txnScratch{buf: make([]byte, 0, 256)} //loadctl:allocok audited: pool miss — cold start only, scratch recycles in steady state
	}
	sc.req = txnRequest{}
	return sc
}

//loadctl:hotpath
func putTxnScratch(sc *txnScratch) { txnScratchPool.Put(sc) }

// parseTxnQuery applies rawQuery onto req with url.Values.Get semantics,
// in one pass over the pairs wire.NextQueryPair decodes: the first
// occurrence of a key wins, a first occurrence with an empty value means
// "absent" (url.Values.Get returns the empty first value), unknown keys
// are ignored, and k/base/span must parse as integers within their
// floors or the request is a 400. A non-empty errMsg is the 400 message;
// with several bad parameters it names the first in query order.
//
//loadctl:hotpath
func parseTxnQuery(raw string, req *txnRequest) (errMsg string) {
	var seenClass, seenShape, seenK, seenBase, seenSpan bool
	for key, val, rest, ok := wire.NextQueryPair(raw); ok; key, val, rest, ok = wire.NextQueryPair(rest) {
		switch key {
		case "class":
			if seenClass {
				continue
			}
			seenClass = true
			if val != "" {
				req.Class = val
			}
		case "shape":
			if seenShape {
				continue
			}
			seenShape = true
			if val != "" {
				req.Shape = val
			}
		case "k":
			if seenK {
				continue
			}
			seenK = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return "bad k"
				}
				req.K = n
			}
		case "base":
			if seenBase {
				continue
			}
			seenBase = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return "bad base"
				}
				req.Base = n
			}
		case "span":
			if seenSpan {
				continue
			}
			seenSpan = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return "bad span"
				}
				req.Span = n
			}
		}
	}
	return ""
}

// buildSpecFast samples one transaction's access set into the scratch's
// reused slices: k distinct items from the key range [base, base+span)
// mod Items (span<=0 = the whole store), write intent per position for
// updaters. Same sampling contract as the retired buildSpec, but the
// generator is the value-type FastRNG and the slices amortize to zero
// allocations.
//
//loadctl:hotpath
func (s *Server) buildSpecFast(sc *txnScratch, k int, query bool, writeFrac float64, base, span int) TxnSpec {
	domain := s.cfg.Items
	if span > 0 && span < domain {
		domain = span
	}
	if k < 1 {
		k = 1
	}
	if k > domain {
		k = domain
	}
	if cap(sc.keys) < k {
		sc.keys = make([]int, k)   //loadctl:allocok audited: capacity growth to the largest k seen, then reused for the scratch's lifetime
		sc.write = make([]bool, k) //loadctl:allocok audited: capacity growth, as above
	}
	spec := TxnSpec{Keys: sc.keys[:k], Write: sc.write[:k]}
	sc.rng.SampleDistinct(spec.Keys, domain)
	if base > 0 {
		for i := range spec.Keys {
			spec.Keys[i] = (spec.Keys[i] + base) % s.cfg.Items
		}
	}
	if query {
		for i := range spec.Write {
			spec.Write[i] = false
		}
		return spec
	}
	wrote := false
	for i := range spec.Write {
		spec.Write[i] = sc.rng.Bernoulli(writeFrac)
		wrote = wrote || spec.Write[i]
	}
	if !wrote {
		// An updater writes at least one item, as in the simulation model.
		spec.Write[sc.rng.Intn(k)] = true
	}
	return spec
}

// jsonPlain reports whether s can be embedded in a JSON string without
// escaping. Class names are operator configuration, so the fast
// renderer checks rather than trusts; a name that needs escaping falls
// back to encoding/json.
//
//loadctl:hotpath
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// writeTxnFast renders a txnResponse by hand into the pooled buffer and
// writes it — the shape (field order, omitempty behavior) matches the
// encoding/json rendering of txnResponse, which remains the fallback
// for class names that would need escaping.
//
//loadctl:hotpath
func writeTxnFast(w http.ResponseWriter, sc *txnScratch, code int, status, shape, admissionClass string, attempts int, latMS float64) {
	if !jsonPlain(shape) || !jsonPlain(admissionClass) {
		writeJSON(w, code, txnResponse{Status: status, Class: shape, AdmissionClass: admissionClass, Attempts: attempts, LatencyMS: latMS}) //loadctl:allocok audited: fallback for class names needing JSON escaping — never taken with plain config
		return
	}
	b := append(sc.buf[:0], `{"status":"`...)
	b = append(b, status...)
	b = append(b, '"')
	if shape != "" {
		b = append(b, `,"class":"`...)
		b = append(b, shape...)
		b = append(b, '"')
	}
	if admissionClass != "" {
		b = append(b, `,"admission_class":"`...)
		b = append(b, admissionClass...)
		b = append(b, '"')
	}
	if attempts != 0 {
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(attempts), 10)
	}
	b = append(b, `,"latency_ms":`...)
	b = strconv.AppendFloat(b, latMS, 'f', -1, 64)
	b = append(b, '}', '\n')
	sc.buf = b
	h := w.Header()
	wire.SetHeader(h, "Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}
