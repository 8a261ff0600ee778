package client

import (
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
)

// TestRetryAfterHintForms pins both RFC 9110 §10.2.3 Retry-After
// shapes — delta-seconds and HTTP-date — plus the junk the parser must
// shrug off. now anchors the date form.
func TestRetryAfterHintForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"delta seconds", "3", 3 * time.Second},
		{"delta large", "120", 2 * time.Minute},
		{"delta zero", "0", 0},
		{"delta negative", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date GMT form", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second},
		{"http date at now", now.Format(http.TimeFormat), 0},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		// RFC 850 and asctime are the obsolete-but-mandatory forms
		// http.ParseTime accepts.
		{"rfc850 date", "Saturday, 08-Aug-26 12:01:00 GMT", time.Minute},
		{"asctime date", "Sat Aug  8 12:02:00 2026", 2 * time.Minute},
		{"garbage", "soon", 0},
		{"empty", "", 0},
		{"float delta", "1.5", 0},
		// Deltas past time.Duration's range are junk, not a wrapped
		// sleep: 18446744074 s would wrap to 290 ms, 9223372037 s to a
		// negative duration.
		{"delta at the duration limit", "9223372036", 9223372036 * time.Second},
		{"delta wrapping positive", "18446744074", 0},
		{"delta wrapping negative", "9223372037", 0},
		{"delta past int64", "99999999999999999999", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterHint(tc.value, now); got != tc.want {
				t.Fatalf("retryAfterHint(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

// TestWireErrorRetryAfterRange: retry_after_ms arrives from the server
// as an arbitrary integer; one too large for a time.Duration must be
// dropped rather than wrapped into a short or negative hint.
func TestWireErrorRetryAfterRange(t *testing.T) {
	maxMs := int64(math.MaxInt64 / int64(time.Millisecond))
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{1500, 1500 * time.Millisecond},
		{maxMs, time.Duration(maxMs) * time.Millisecond},
		{maxMs + 1, 0},      // wraps negative
		{18446744073710, 0}, // wraps to 448 µs
		{math.MaxInt64, 0},  // wraps to -1 ms
		{-5, 0},
	}
	for _, tc := range cases {
		we := &nanoxbar.WireError{Code: nanoxbar.CodeOverloaded, Message: "shed", RetryAfterMs: tc.ms}
		if got := resilience.RetryAfter(we.Err()); got != tc.want {
			t.Errorf("retry_after_ms %d: hint %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// FuzzRetryAfterHint feeds retryAfterHint arbitrary header values, as
// every non-2xx response from a server or proxy can. The hint must
// never be negative, and a value that parses as a delta must yield
// either no hint or exactly that many whole seconds. The seed corpus
// is in testdata/fuzz/FuzzRetryAfterHint.
func FuzzRetryAfterHint(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, value string) {
		d := retryAfterHint(value, now)
		if d < 0 {
			t.Fatalf("retryAfterHint(%q) = %v, negative", value, d)
		}
		if n, err := strconv.ParseInt(value, 10, 64); err == nil && d != 0 {
			if d%time.Second != 0 || int64(d/time.Second) != n {
				t.Fatalf("retryAfterHint(%q) = %v, want 0 or %d s", value, d, n)
			}
		}
	})
}
