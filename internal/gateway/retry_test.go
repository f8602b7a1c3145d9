package gateway

import (
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"
)

// FuzzParseRetryAfter: a Retry-After value is a byte string a replica — or
// whatever answers in its place — chose. Whatever it is, the hint is in
// [0, maxRetryAfter]; where it is a count of seconds, 1*DIGIT, it is that
// count, saturated, so a longer count is never a shorter hint; and anything
// else (a sign, an HTTP-date, garbage) is no hint. The reference is
// math/big, which has no range to overflow.
func FuzzParseRetryAfter(f *testing.F) {
	for _, v := range []string{
		"", "0", "3", "+7", "-1", "9223372036", "9223372037", "9223372036854775807",
		"9223372036854775808", "99999999999999999999999", "-99999999999999999999999",
		"Wed, 21 Oct 2015 07:28:00 GMT", "1e3", " 5", "5 ", "0x10", "1_000", "٣",
	} {
		f.Add(v)
	}
	parse := func(v string) time.Duration {
		return ParseRetryAfter(http.Header{"Retry-After": {v}})
	}
	f.Fuzz(func(t *testing.T, v string) {
		got := parse(v)
		if got < 0 || got > maxRetryAfter {
			t.Fatalf("Retry-After %q: a hint of %d ns", v, got)
		}
		if v == "" || strings.Trim(v, "0123456789") != "" {
			if got != 0 {
				t.Fatalf("Retry-After %q is not a count of seconds, read as %v", v, got)
			}
			return
		}
		secs, _ := new(big.Int).SetString(v, 10)
		want := new(big.Int).Mul(secs, big.NewInt(int64(time.Second)))
		if !want.IsInt64() {
			want.SetInt64(int64(maxRetryAfter))
		}
		if int64(got) != want.Int64() {
			t.Fatalf("Retry-After %q read as %d ns, want %d", v, got, want.Int64())
		}
		if longer := parse(secs.Add(secs, big.NewInt(1)).String()); longer < got {
			t.Fatalf("Retry-After %q read as %v, one second more as %v", v, got, longer)
		}
	})
}
