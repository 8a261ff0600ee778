package main

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
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

// syncBuffer is a bytes.Buffer safe to read while os/exec's copier
// goroutine writes the child's output into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running xbarserverd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stdout *syncBuffer
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's result, set before exited closes
}

// startDaemon boots bin on a free loopback port with the extra flags
// and waits until /healthz answers. The process is killed at cleanup
// if it is still running.
func startDaemon(t *testing.T, bin string, flags ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{url: "http://" + addr, stdout: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-workers", "2", "-log-level", "warn"}, flags...)...)
	d.cmd.Stdout = d.stdout
	stderr := &syncBuffer{}
	d.cmd.Stderr = stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before serving: %v\nstdout:\n%s\nstderr:\n%s", d.err, d.stdout, stderr)
		default:
		}
		if resp, err := http.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never answered /healthz\nstdout:\n%s\nstderr:\n%s", d.stdout, stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends SIGTERM and returns the process's exit error once the
// graceful shutdown completes.
func (d *daemon) stop(t *testing.T) error {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM\nstdout:\n%s", d.stdout)
		return nil
	}
}

// TestLifecycleCheckpointAndWarmRestart drives the real binary through
// drain and restart: a SIGTERM exits 0 after checkpointing the cache,
// and a reboot from that snapshot serves the same function as a cache
// hit without synthesizing.
func TestLifecycleCheckpointAndWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon twice")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "xbarserverd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "cache.snap")
	fn := nanoxbar.Expr("x1x2 + x1x3 + x2x3")
	ctx := context.Background()

	first := startDaemon(t, bin, "-cache-save", snap)
	cl := client.New(first.url)
	syn, err := cl.Synthesize(ctx, fn)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if syn.CacheHit {
		t.Fatal("first synthesis of a cold daemon was a cache hit")
	}
	cl.Close()
	if err := first.stop(t); err != nil {
		t.Fatalf("SIGTERM exit: %v\nstdout:\n%s", err, first.stdout)
	}
	if out := first.stdout.String(); !strings.Contains(out, "checkpointed 1 cache entries") {
		t.Fatalf("no checkpoint line on shutdown; stdout:\n%s", out)
	}

	second := startDaemon(t, bin, "-cache-load", snap)
	if out := second.stdout.String(); !strings.Contains(out, "cache warmed with 1 entries") {
		t.Fatalf("no warm-start line on reboot; stdout:\n%s", out)
	}
	cl = client.New(second.url)
	defer cl.Close()
	again, err := cl.Synthesize(ctx, fn)
	if err != nil {
		t.Fatalf("replay synthesize: %v", err)
	}
	if !again.CacheHit || again.Key != syn.Key || again.Area != syn.Area {
		t.Fatalf("replay = hit %v key %.16s area %d; want hit of key %.16s area %d",
			again.CacheHit, again.Key, again.Area, syn.Key, syn.Area)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.SynthCalls != 0 {
		t.Fatalf("synth_calls = %d after warm restart, want 0", st.SynthCalls)
	}
	if err := second.stop(t); err != nil {
		t.Fatalf("second SIGTERM exit: %v", err)
	}
}
