package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// TestUnaryCallsReuseOneConnection: sequential calls must ride one
// keep-alive connection — the client reads every response body to EOF,
// so net/http can return the connection to its pool.
func TestUnaryCallsReuseOneConnection(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	srv := httpapi.New(eng)
	ts := httptest.NewUnstartedServer(srv)
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	t.Cleanup(func() { cl.Close() })

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cl.Synthesize(ctx, nanoxbar.Func("maj3")); err != nil {
			t.Fatalf("synthesize %d: %v", i, err)
		}
		if _, err := cl.Map(ctx, nanoxbar.Func("maj3"), nanoxbar.WithSeed(int64(i)), nanoxbar.WithDensity(0.05)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		// A failed request (error event) must not cost the
		// connection either.
		if _, err := cl.Synthesize(ctx, nanoxbar.Func("no-such-benchmark")); err == nil {
			t.Fatalf("bad spec %d succeeded", i)
		}
	}
	// Nor must rejections with a non-200 error body.
	srv.Drain()
	for i := 0; i < 5; i++ {
		if _, err := cl.Synthesize(ctx, nanoxbar.Func("maj3")); !errors.Is(err, nanoxbar.ErrUnavailable) {
			t.Fatalf("draining synthesize %d: %v, want ErrUnavailable", i, err)
		}
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("66 sequential calls opened %d connections, want 1", n)
	}
}

// stubTransport answers every request with a fixed status and body.
type stubTransport struct {
	status int
	body   []byte
}

func (s stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: s.status,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(s.body)),
		Request:    req,
	}, nil
}

// taxonomy is the closed set of wire codes an SDK error may carry.
var taxonomy = map[string]bool{
	nanoxbar.CodeBadSpec: true, nanoxbar.CodeInfeasible: true, nanoxbar.CodeCanceled: true,
	nanoxbar.CodeOverloaded: true, nanoxbar.CodeUnavailable: true, nanoxbar.CodeInternal: true,
}

// FuzzJobs feeds arbitrary bytes to the client's one response decoder,
// as a 200 NDJSON stream and as a non-200 error body. It must never
// panic, every error it returns must carry a taxonomy code, and no
// stream may yield a success without its payload. Seeds live in
// testdata/fuzz/FuzzJobs.
func FuzzJobs(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, status := range []int{http.StatusOK, http.StatusServiceUnavailable} {
			cl := client.New("http://stub", client.WithHTTPClient(&http.Client{
				Transport: stubTransport{status: status, body: body},
			}))
			check := func(what string, ok bool, err error) {
				if err != nil {
					if code := nanoxbar.ErrorCode(err); !taxonomy[code] {
						t.Fatalf("status %d %s: error %v carries code %q outside the taxonomy", status, what, err, code)
					}
					return
				}
				if !ok {
					t.Fatalf("status %d %s: success without a payload", status, what)
				}
			}

			err := cl.Jobs(context.Background(), nanoxbar.JobsRequest{
				Requests: []nanoxbar.Request{{Kind: nanoxbar.KindSynthesize, Function: nanoxbar.Func("maj3")}},
			}, func(ev nanoxbar.Event) {
				switch ev.Type {
				case nanoxbar.EventResult:
					check("result event", ev.Result != nil, nil)
				case nanoxbar.EventError:
					check("error event", ev.Error != nil, ev.Error.Err())
				}
			})
			check("Jobs", true, err)

			syn, err := cl.Synthesize(context.Background(), nanoxbar.Func("maj3"))
			check("Synthesize", syn != nil, err)
			ys, err := cl.YieldSweep(context.Background(), nanoxbar.Func("maj3"),
				nanoxbar.OnDie(func(d nanoxbar.Die) {
					check("die", d.Map != nil, d.Err)
				}))
			check("YieldSweep", ys != nil, err)
		}
	})
}
