package main

import (
	"context"
	"testing"
	"time"
)

func TestPercentileReportsSampleCounts(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[len(lats)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q      float64
		ms     float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}} {
		got := percentile(lats, tc.q)
		if got.ms != tc.ms || got.n != 100 || got.beyond != tc.beyond {
			t.Errorf("p%g = %+v, want %v ms over 100 samples with %d beyond", tc.q*100, got, tc.ms, tc.beyond)
		}
	}
	if got := percentile(nil, 0.5); got.n != 0 || got.ms != 0 {
		t.Errorf("empty p50 = %+v", got)
	}
}

// TestRateUsesMeasuredWindow runs a window whose requests outlast the
// configured duration: the rate must divide by the elapsed time the
// loop measured, which ends with the last reply.
func TestRateUsesMeasuredWindow(t *testing.T) {
	const configured = 20 * time.Millisecond
	res := runLoop(context.Background(), loopConfig{
		clients:  2,
		duration: configured,
		next:     func(i int64) op { return op{index: i} },
		sampled:  func(int64) bool { return false },
		do: func(context.Context, op, bool) outcome {
			time.Sleep(60 * time.Millisecond)
			return outcome{}
		},
		area: func(op, outcome) (float64, bool) { return 0, false },
	})
	if res.attempted != 2 {
		t.Fatalf("attempted %d requests, want one per client", res.attempted)
	}
	if res.elapsed < 60*time.Millisecond {
		t.Fatalf("elapsed %v shorter than one request", res.elapsed)
	}
	got := rate(res.attempted, res.elapsed)
	if want := 2 / res.elapsed.Seconds(); got != want {
		t.Errorf("rate %v, want %v over the measured %v", got, want, res.elapsed)
	}
	if naive := 2 / configured.Seconds(); got >= naive/2 {
		t.Errorf("rate %v is close to the configured-duration rate %v", got, naive)
	}
	if len(res.latencies) != 2 || res.nextIndex != 2 {
		t.Errorf("latencies %v, next index %d", res.latencies, res.nextIndex)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}
