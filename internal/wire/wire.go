// Package wire holds the allocation-free HTTP helpers both serving tiers
// share on their /txn hot paths: the query-pair decoder the server and
// the proxy read request parameters with, and the in-place header setter
// they answer with. It is a leaf package: only the standard library.
package wire

import (
	"net/http"
	"net/url"
)

// NextQueryPair decodes the first pair of raw, an '&'-separated query
// string, exactly as url.ParseQuery does: empty pairs and pairs holding
// a ';' are skipped, key and value split at the first '=', both are
// unescaped (url.QueryUnescape) only when the pair holds a '%' or '+',
// and a pair that fails to unescape is skipped. rest is what follows the
// pair; ok is false when raw holds no further pair. Plain pairs are
// substrings of raw, so the common case never allocates; only an
// escaped pair pays for its decoded strings.
//
// Callers loop until ok is false; keeping the first occurrence of a key
// matches url.Values.Get.
//
//loadctl:hotpath
func NextQueryPair(raw string) (key, value, rest string, ok bool) {
	for raw != "" {
		// One scan finds the pair's end and its first '=', and notes the
		// bytes that change how the pair reads.
		end, eq, semi, esc := len(raw), -1, false, false
	scan:
		for i := 0; i < len(raw); i++ {
			switch raw[i] {
			case '&':
				end = i
				break scan
			case '=':
				if eq < 0 {
					eq = i
				}
			case ';':
				semi = true
			case '%', '+':
				esc = true
			}
		}
		pair := raw[:end]
		raw = raw[min(end+1, len(raw)):]
		if pair == "" || semi {
			continue
		}
		key, value = pair, ""
		if eq >= 0 {
			key, value = pair[:eq], pair[eq+1:]
		}
		if esc {
			var err error
			if key, err = url.QueryUnescape(key); err != nil {
				continue
			}
			if value, err = url.QueryUnescape(value); err != nil {
				continue
			}
		}
		return key, value, raw, true
	}
	return "", "", "", false
}

// SetHeader is http.Header.Set without the per-call []string allocation
// when the key already holds exactly one value: Set always allocates a
// fresh one-element slice, which on a response header map reused across
// keep-alive requests is pure churn. key must already be in canonical
// form; every caller passes a canonical constant.
//
//loadctl:hotpath
func SetHeader(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value} //loadctl:allocok audited: first write to this header slot; later writes reuse the slice in place
}
