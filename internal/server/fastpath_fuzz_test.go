package server

import (
	"net/url"
	"strconv"
	"testing"
)

// parseTxnQueryReference is the url.Values reading of a /txn query —
// what handleTxn did before the single-pass parser — kept as the
// semantic reference parseTxnQuery is fuzzed against.
func parseTxnQueryReference(raw string, req *txnRequest) (errMsg string) {
	q, _ := url.ParseQuery(raw)
	if v := q.Get("class"); v != "" {
		req.Class = v
	}
	if v := q.Get("shape"); v != "" {
		req.Shape = v
	}
	for _, p := range []struct {
		name string
		bad  string
		dst  *int
		min  int
	}{
		{"k", "bad k", &req.K, 1},
		{"base", "bad base", &req.Base, 0},
		{"span", "bad span", &req.Span, 0},
	} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < p.min {
			return p.bad
		}
		*p.dst = n
	}
	return ""
}

// FuzzTxnQueryParse holds the single-pass query parser to the url.Values
// reference by differential testing, on every raw query — percent
// escapes, '+' and ';' included: the two parsers must either produce the
// identical txnRequest or both answer 400. The 400 messages may differ —
// the single-pass parser reports the first bad parameter in query order,
// the reference in its fixed k/base/span order — but a request must
// never be accepted by one parser and rejected by the other, and an
// accepted request must decode identically.
func FuzzTxnQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"class=update&k=8",
		"class=query&k=8&base=128&span=1024",
		"k=&k=5",          // first occurrence wins, even when empty
		"class=a&class=b", // first occurrence wins
		"k=0",             // below the k floor
		"base=-1",
		"span=-1&k=bad", // two bad parameters: both parsers must 400
		"shape=update",
		"foo=bar&class=x", // unknown keys ignored
		"k",               // key without '='
		"=v",              // value without key
		"&&&",
		"class==x",
		"k=00008",
		"k=+8", // '+' decodes to a space: not an integer
		"class=a%20b",
		"cl%61ss=a+b&k=1", // escaped key, '+' in the value
		"k=%zz&k=3",       // a bad escape skips the pair: k=3 is the first k
		"a;b=1&class=x",   // a pair with ';' is skipped, the rest still parse
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var got, want txnRequest
		gotErr := parseTxnQuery(raw, &got)
		wantErr := parseTxnQueryReference(raw, &want)
		if (gotErr == "") != (wantErr == "") {
			t.Fatalf("raw %q: parser err %q, reference err %q", raw, gotErr, wantErr)
		}
		if gotErr != "" {
			return // both 400
		}
		if got != want {
			t.Fatalf("raw %q: parser %+v != reference %+v", raw, got, want)
		}
	})
}
