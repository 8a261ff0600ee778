package main

import (
	"context"
	"log/slog"
	"reflect"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    map[string]string
		wantErr string // substring of the error; "" means success
	}{
		{name: "trimmed entries and empty parts", spec: " a=http://h1:8080 ,, b=http://h2:8080 ",
			want: map[string]string{"a": "http://h1:8080", "b": "http://h2:8080"}},
		{name: "trailing slash stripped", spec: "a=http://h1:8080/",
			want: map[string]string{"a": "http://h1:8080"}},
		// Every member may share one flag value; cluster.New skips the
		// node's own id, so the entry survives parsing.
		{name: "self entry kept", spec: "self=http://127.0.0.1:8080,b=http://h2:8080",
			want: map[string]string{"self": "http://127.0.0.1:8080", "b": "http://h2:8080"}},
		{name: "duplicate id", spec: "a=http://h1,b=http://h2,a=http://h3", wantErr: "duplicate -peers id"},
		{name: "empty list", spec: "", wantErr: "names no members"},
		{name: "only separators", spec: " , ,", wantErr: "names no members"},
		{name: "missing equals", spec: "a", wantErr: "want id=url"},
		{name: "empty id", spec: "=http://h1", wantErr: "want id=url"},
		{name: "empty url", spec: "a=", wantErr: "want id=url"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parsePeers(%q) = %v, %v; want error containing %q", tc.spec, got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsePeers(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}

func TestBuildLogger(t *testing.T) {
	cases := []struct {
		level, format string
		min           slog.Level // lowest enabled level
		json          bool
		wantErr       string
	}{
		{level: "debug", format: "text", min: slog.LevelDebug},
		{level: "info", format: "text", min: slog.LevelInfo},
		{level: "warn", format: "json", min: slog.LevelWarn, json: true},
		{level: "error", format: "json", min: slog.LevelError, json: true},
		{level: "WARN", format: "text", min: slog.LevelWarn},
		{level: "verbose", format: "text", wantErr: "bad -log-level"},
		{level: "", format: "text", wantErr: "bad -log-level"},
		{level: "info", format: "xml", wantErr: "bad -log-format"},
		{level: "info", format: "", wantErr: "bad -log-format"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.level+"/"+tc.format, func(t *testing.T) {
			l, err := buildLogger(tc.level, tc.format)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("buildLogger(%q, %q) = %v; want error containing %q", tc.level, tc.format, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("buildLogger(%q, %q): %v", tc.level, tc.format, err)
			}
			if !l.Enabled(ctx, tc.min) || l.Enabled(ctx, tc.min-1) {
				t.Fatalf("buildLogger(%q, ...): lowest enabled level is not %v", tc.level, tc.min)
			}
			_, isJSON := l.Handler().(*slog.JSONHandler)
			_, isText := l.Handler().(*slog.TextHandler)
			if isJSON != tc.json || isText == tc.json {
				t.Fatalf("buildLogger(..., %q) handler %T", tc.format, l.Handler())
			}
		})
	}
}
