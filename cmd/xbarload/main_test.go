package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    map[string]int
		wantErr string // substring of the error; "" means success
	}{
		{name: "default preset", spec: "default",
			want: map[string]int{"synthesize": 3, "map": 5, "yield": 1, "cancel": 1}},
		{name: "yield-heavy preset", spec: "yield-heavy",
			want: map[string]int{"synthesize": 1, "map": 2, "yield": 6, "cancel": 1}},
		{name: "explicit with spaces and empty parts", spec: " synthesize=2 ,, map=0",
			want: map[string]int{"synthesize": 2, "map": 0}},
		{name: "weight at the bound", spec: fmt.Sprintf("yield=%d", maxMixWeight),
			want: map[string]int{"yield": maxMixWeight}},
		{name: "unknown scenario", spec: "synthesize=1,compile=2", wantErr: "unknown scenario"},
		{name: "missing equals", spec: "synthesize", wantErr: "want name=weight"},
		{name: "negative weight", spec: "synthesize=-1", wantErr: "bad mix weight"},
		{name: "non-numeric weight", spec: "synthesize=lots", wantErr: "bad mix weight"},
		{name: "zero total", spec: "synthesize=0,map=0", wantErr: "zero total weight"},
		{name: "empty spec", spec: "", wantErr: "zero total weight"},
		{name: "duplicate scenario", spec: "map=1,synthesize=2,map=3", wantErr: "named twice"},
		{name: "over the bound", spec: fmt.Sprintf("synthesize=%d", maxMixWeight+1), wantErr: "bad mix weight"},
		{name: "deck-sized weight", spec: "synthesize=2000000000", wantErr: "bad mix weight"},
		{name: "overflowing weight", spec: "synthesize=99999999999999999999", wantErr: "bad mix weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseMix(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseMix(%q) = %v, %v; want error containing %q", tc.spec, got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseMix(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseMix(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{name: "empty", sorted: nil, p: 0.5, want: 0},
		{name: "p=0 is the minimum", sorted: hundred, p: 0, want: 1 * time.Millisecond},
		{name: "p=1 is the maximum", sorted: hundred, p: 1, want: 100 * time.Millisecond},
		{name: "p99 of 100 samples", sorted: hundred, p: 0.99, want: 99 * time.Millisecond},
		{name: "single sample", sorted: hundred[:1], p: 0.99, want: 1 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := percentile(tc.sorted, tc.p); got != tc.want {
				t.Fatalf("percentile(%d samples, %v) = %v, want %v", len(tc.sorted), tc.p, got, tc.want)
			}
		})
	}
}
