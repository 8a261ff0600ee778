package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/pkg/nanoxbar"
)

// protectedServer builds a server and returns a handle on the Server
// for drain control.
func protectedServer(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	srv := New(eng, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// tinyJob is a jobs body that completes in microseconds.
var tinyJob = json.RawMessage(`{"requests":[{"kind":"synthesize","function":{"tt":"2:0x6"}}]}`)

// errorCode decodes body as the one server error shape and returns its
// taxonomy code.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var er nanoxbar.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Message == "" {
		t.Fatalf("body %s is not an ErrorResponse (err %v)", body, err)
	}
	return er.Error.Code
}

func TestDrainRejectsWorkKeepsOps(t *testing.T) {
	ts, srv := protectedServer(t)
	srv.Drain()
	if !srv.draining.Load() {
		t.Fatal("draining = false after Drain")
	}

	resp, body := postJSON(t, ts.URL+"/v2/jobs", tinyJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining work route status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	if code := errorCode(t, body); code != apierr.CodeUnavailable {
		t.Fatalf("drain code = %q, want %q", code, apierr.CodeUnavailable)
	}

	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while draining: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while draining = %d, want 200", path, r.StatusCode)
		}
	}
}

func TestDeadlineHeaderBoundsRequest(t *testing.T) {
	ts, _ := protectedServer(t)
	for _, tc := range []struct {
		name, ms, body string
		want           string
	}{
		// A 1ms budget cannot cover a 2000-die yield sweep: the request
		// must come back canceled (deadline exceeded server-side), not
		// hang.
		{"1ms-sweep", "1",
			`{"requests":[{"kind":"yield","function":{"name":"maj5"},"chips":2000,"seed":1}]}`,
			nanoxbar.EventError},
		// Budgets past the 10-minute cap are capped, including ones
		// whose nanosecond value overflows int64.
		{"overflow-capped", "9300000000000",
			`{"requests":[{"kind":"synthesize","function":{"tt":"2:0x6"}}]}`,
			nanoxbar.EventResult},
		{"maxint-capped", "9223372036854775807",
			`{"requests":[{"kind":"synthesize","function":{"tt":"2:0x8"}}]}`,
			nanoxbar.EventResult},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(deadlineHeader, tc.ms)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			first := bytes.SplitN(raw, []byte("\n"), 2)[0]
			var ev nanoxbar.Event
			if err := json.Unmarshal(first, &ev); err != nil {
				t.Fatalf("bad frame %s: %v", first, err)
			}
			if ev.Type != tc.want {
				t.Fatalf("%sms budget answered %s, want %s (body %s)", tc.ms, ev.Type, tc.want, raw)
			}
			if ev.Type == nanoxbar.EventError && ev.Error.Code != apierr.CodeCanceled {
				t.Fatalf("code = %q, want %q (body %s)", ev.Error.Code, apierr.CodeCanceled, raw)
			}
		})
	}
}

func TestPanicRecoveryReturns500WithRequestID(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(eng.Close)
	srv := New(eng)
	// Mount a panicking route through the same middleware chain.
	srv.mux.HandleFunc("/boom", srv.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("500 without X-Request-ID")
	}
	if code := errorCode(t, body); code != apierr.CodeInternal {
		t.Fatalf("panic code = %q, want %q", code, apierr.CodeInternal)
	}
	if !bytes.Contains(body, []byte(id)) {
		t.Fatalf("panic body %s does not reference request ID %s", body, id)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
	// The server survives: a normal request still works.
	resp2, _ := postJSON(t, ts.URL+"/v2/jobs", tinyJob)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d", resp2.StatusCode)
	}
}

// TestErrorBodiesShareOneShape: every rejection the server writes
// outside the event stream — peer-fill 400, panic 500, drain
// 503 — decodes as a nanoxbar.ErrorResponse with its taxonomy
// code.
func TestErrorBodiesShareOneShape(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	node, err := cluster.New(eng, cluster.Config{NodeID: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithCluster(node))
	srv.mux.HandleFunc("/boom", srv.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if status, body := get(cluster.FillPath); status != http.StatusBadRequest || errorCode(t, body) != apierr.CodeBadSpec {
		t.Fatalf("peer fill without key: %d %s, want 400 bad_spec", status, body)
	}
	if status, body := get("/boom"); status != http.StatusInternalServerError || errorCode(t, body) != apierr.CodeInternal {
		t.Fatalf("panic: %d %s, want 500 internal", status, body)
	}

	srv.Drain()
	resp, body := postJSON(t, ts.URL+"/v2/jobs", tinyJob)
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(t, body) != apierr.CodeUnavailable {
		t.Fatalf("drain: %d %s, want 503 unavailable", resp.StatusCode, body)
	}
}
