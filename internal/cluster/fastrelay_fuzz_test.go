package cluster

import (
	"net/url"
	"testing"
)

// FuzzProxyQueryClass holds the relay's class lookup to url.Values on
// every raw query, escapes and ';' included: queryClass must return
// exactly what url.ParseQuery followed by Get("class") returns.
func FuzzProxyQueryClass(f *testing.F) {
	for _, s := range []string{
		"",
		"class=interactive&k=8",
		"k=8&class=batch",
		"class=&class=b", // first occurrence wins, even when empty
		"class",          // key without '='
		"class==x",
		"class=a+b",
		"cl%61ss=a%20b",
		"class=%zz&class=ok", // a bad escape skips the pair
		"a;b=1&class=x",      // a pair with ';' is skipped
		"class=x;y&class=z",
		"&&class=q&&",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		if got, want := queryClass(raw), q.Get("class"); got != want {
			t.Fatalf("raw %q: queryClass %q, url.Values %q", raw, got, want)
		}
	})
}
