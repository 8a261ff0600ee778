// Integration tests for the cluster tier, wired over real loopback
// HTTP through internal/httpapi. External test package: cluster must
// not import httpapi (the dependency runs the other way), but the
// tests need both.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/pkg/nanoxbar"
)

// swapHandler lets the httptest server start (fixing its URL) before
// the node that serves on it exists — membership URLs are needed to
// construct the nodes.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) { s.mu.Lock(); s.h = h; s.mu.Unlock() }

type testNode struct {
	id   string
	eng  *engine.Engine
	node *cluster.Node
	srv  *httptest.Server
}

// startCluster boots one in-process node per id, each a full
// engine + cluster.Node + httpapi server on a loopback listener, all
// sharing one membership map. stubs maps ids to raw handlers standing
// in for a member (no engine behind them).
func startCluster(t *testing.T, ids []string, stubs map[string]http.Handler) map[string]*testNode {
	t.Helper()
	urls := map[string]string{}
	swaps := map[string]*swapHandler{}
	srvs := map[string]*httptest.Server{}
	for _, id := range ids {
		sh := &swapHandler{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		swaps[id], srvs[id], urls[id] = sh, srv, srv.URL
	}
	nodes := map[string]*testNode{}
	for _, id := range ids {
		if h, ok := stubs[id]; ok {
			swaps[id].set(h)
			continue
		}
		eng := engine.New(engine.Config{Workers: 2, CacheSize: 256})
		t.Cleanup(eng.Close)
		node, err := cluster.New(eng, cluster.Config{
			NodeID: id, Advertise: urls[id], Peers: urls,
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", id, err)
		}
		eng.SetPeerFill(node.PeerFill)
		swaps[id].set(httpapi.New(eng, httpapi.WithCluster(node)))
		nodes[id] = &testNode{id: id, eng: eng, node: node, srv: srvs[id]}
	}
	return nodes
}

// requestOwnedBy scans small truth-table functions for one whose cache
// key the ring assigns to owner, so tests can aim requests at a
// specific member deterministically.
func requestOwnedBy(t *testing.T, eng *engine.Engine, members []string, owner string) (engine.Request, string) {
	t.Helper()
	ring := cluster.NewRing(members)
	for v := 1; v < 255; v++ {
		req := engine.Request{Kind: engine.KindSynthesize,
			Function: engine.FunctionSpec{TT: fmt.Sprintf("3:0x%02x", v)}}
		key, err := eng.KeyFor(req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if o, _ := ring.Owner(key); o == owner {
			return req, key
		}
	}
	t.Fatalf("no 3-var function key owned by %s", owner)
	return engine.Request{}, ""
}

// submitBatch runs reqs through the engine's Submit and returns their
// results in submission order.
func submitBatch(ctx context.Context, eng *engine.Engine, reqs []engine.Request) []engine.Result {
	results := make([]engine.Result, len(reqs))
	eng.Submit(ctx, reqs, func(i int, r engine.Result) { results[i] = r }, nil)
	return results
}

// postSynthesize runs req through url's POST /v2/jobs, with id (when
// set) as X-Request-ID, and returns the HTTP response and the request's
// outcome (an error event becomes a Result carrying its message and
// code).
func postSynthesize(t *testing.T, url string, req engine.Request, id string) (*http.Response, engine.Result) {
	t.Helper()
	body, err := json.Marshal(nanoxbar.JobsRequest{Requests: []engine.Request{req}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v2/jobs: %v", err)
	}
	defer resp.Body.Close()
	var res engine.Result
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev nanoxbar.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decode event: %v", err)
		}
		switch ev.Type {
		case nanoxbar.EventResult:
			res = *ev.Result
		case nanoxbar.EventError:
			res = engine.Result{Kind: req.Kind, Error: ev.Error.Message, Code: ev.Error.Code}
		}
	}
	return resp, res
}

// stubOwner answers POST /v2/jobs with the given status and, on 200,
// the NDJSON frames (a done frame is appended); record, when non-nil,
// sees every request it receives.
func stubOwner(status int, frames []nanoxbar.Event, record func(*http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/jobs" {
			http.NotFound(w, r)
			return
		}
		if record != nil {
			record(r)
		}
		if status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(nanoxbar.ErrorResponse{Error: nanoxbar.WireError{
				Code: "overloaded", Message: "stub owner shedding",
			}})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range frames {
			enc.Encode(ev)
		}
		enc.Encode(nanoxbar.Event{Type: nanoxbar.EventDone, Done: &nanoxbar.JobsSummary{Results: 1}})
	})
}

// TestPeerFillHit: a cold node whose key is owned by a warm sibling
// fills from that sibling's cache instead of synthesizing.
func TestPeerFillHit(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	if res := nodes["b"].eng.Do(context.Background(), req, nil); !res.Ok() {
		t.Fatalf("warm b: %v", res.Error)
	}
	synthB := nodes["b"].eng.Stats().SynthCalls

	if res := nodes["a"].eng.Do(context.Background(), req, nil); !res.Ok() {
		t.Fatalf("a.Do: %v", res.Error)
	}
	st := nodes["a"].node.Status()
	if st.PeerFillHits != 1 || st.PeerFillMisses != 0 {
		t.Fatalf("a fill hits/misses = %d/%d, want 1/0", st.PeerFillHits, st.PeerFillMisses)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("a synthesized %d times despite peer fill", got)
	}
	if got := nodes["b"].eng.Stats().SynthCalls; got != synthB {
		t.Fatalf("fill triggered synthesis on b: %d -> %d", synthB, got)
	}
	// The filled entry is cached: a second local call is a plain hit,
	// no second fill round-trip.
	nodes["a"].eng.Do(context.Background(), req, nil)
	if st := nodes["a"].node.Status(); st.PeerFillHits != 1 {
		t.Fatalf("second call re-filled: hits = %d", st.PeerFillHits)
	}
}

// TestPeerFillMiss: a cold owner answers 204, and the asker falls
// through to local synthesis — a miss can only make the cold path
// slower, never fail it.
func TestPeerFillMiss(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	if res := nodes["a"].eng.Do(context.Background(), req, nil); !res.Ok() {
		t.Fatalf("a.Do: %v", res.Error)
	}
	st := nodes["a"].node.Status()
	if st.PeerFillMisses != 1 || st.PeerFillHits != 0 {
		t.Fatalf("a fill hits/misses = %d/%d, want 0/1", st.PeerFillHits, st.PeerFillMisses)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("a SynthCalls = %d, want 1 (local fallback)", got)
	}
}

// TestForwardToOwner: a synthesis POSTed to a non-owner is proxied to
// the owner, which computes it; the receiving node does no local work.
func TestForwardToOwner(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
	if resp.StatusCode != http.StatusOK || !res.Ok() || res.Synthesis == nil {
		t.Fatalf("forwarded request: HTTP %d, err %q", resp.StatusCode, res.Error)
	}
	if st := nodes["a"].node.Status(); st.Forwards != 1 || st.Failovers != 0 {
		t.Fatalf("a forwards/failovers = %d/%d, want 1/0", st.Forwards, st.Failovers)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("a synthesized a forwarded request: SynthCalls = %d", got)
	}
	if got := nodes["b"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("b SynthCalls = %d, want 1", got)
	}
}

// TestForwardFailover: with the owner down (and not yet detected), the
// ladder falls over to the fallback replica, which serves the request
// locally under the forwarded marker.
func TestForwardFailover(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b", "c"}, "b")

	nodes["b"].srv.Close() // abrupt kill; a's detector still believes b alive

	resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
	if resp.StatusCode != http.StatusOK || !res.Ok() {
		t.Fatalf("failover request: HTTP %d, err %q", resp.StatusCode, res.Error)
	}
	st := nodes["a"].node.Status()
	if st.Failovers != 1 {
		t.Fatalf("a failovers = %d, want 1", st.Failovers)
	}
	// Exactly one of {a local, c} computed it — never b, never both.
	synthA := nodes["a"].eng.Stats().SynthCalls
	synthC := nodes["c"].eng.Stats().SynthCalls
	if synthA+synthC != 1 {
		t.Fatalf("synth calls a=%d c=%d, want exactly one total", synthA, synthC)
	}
}

// TestLocalDegrade: every remote target dead means the node serves the
// request itself — a typed, successful, counted degrade; the client
// never sees a transport error.
func TestLocalDegrade(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	nodes["b"].srv.Close()

	resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
	if resp.StatusCode != http.StatusOK || !res.Ok() || res.Synthesis == nil {
		t.Fatalf("degraded request: HTTP %d, err %q", resp.StatusCode, res.Error)
	}
	st := nodes["a"].node.Status()
	if st.LocalDegrades != 1 || st.Forwards != 0 {
		t.Fatalf("a degrades/forwards = %d/%d, want 1/0", st.LocalDegrades, st.Forwards)
	}
	// PeerFill also fails against the dead owner, so local synthesis ran.
	if got := nodes["a"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("a SynthCalls = %d, want 1", got)
	}
}

// TestForwardDomainErrorPassesThrough: a domain error event from the
// owner is the answer, not a failure — it must come back typed with the
// owner's code, without tripping the failover ladder.
func TestForwardDomainErrorPassesThrough(t *testing.T) {
	stub := stubOwner(http.StatusOK, []nanoxbar.Event{{
		Type:  nanoxbar.EventError,
		Error: &nanoxbar.WireError{Code: "infeasible", Message: "core: no feasible implementation"},
	}}, nil)
	nodes := startCluster(t, []string{"a", "z"}, map[string]http.Handler{"z": stub})
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "z"}, "z")

	resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if res.Code != "infeasible" {
		t.Fatalf("code = %q, want infeasible", res.Code)
	}
	st := nodes["a"].node.Status()
	if st.Forwards != 1 || st.Failovers != 0 || st.LocalDegrades != 0 {
		t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/0/0",
			st.Forwards, st.Failovers, st.LocalDegrades)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("domain error retried locally: SynthCalls = %d", got)
	}
}

// shedOwners are the ways an owner can refuse a forward for load:
// an overloaded error event inside a 200 stream, or a 429/503 answer.
var shedOwners = map[string]http.Handler{
	"overloaded event": stubOwner(http.StatusOK, []nanoxbar.Event{{
		Type:  nanoxbar.EventError,
		Error: &nanoxbar.WireError{Code: "overloaded", Message: "engine: job queue saturated"},
	}}, nil),
	"429": stubOwner(http.StatusTooManyRequests, nil, nil),
	"503": stubOwner(http.StatusServiceUnavailable, nil, nil),
}

// TestForwardShedFailsOver: an owner that sheds the forward is a
// forward failure — the ladder fails over to the fallback replica,
// which answers; the client never sees the overload.
func TestForwardShedFailsOver(t *testing.T) {
	for name, stub := range shedOwners {
		t.Run(name, func(t *testing.T) {
			nodes := startCluster(t, []string{"a", "z", "c"}, map[string]http.Handler{"z": stub})
			req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "z", "c"}, "z")

			resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
			if resp.StatusCode != http.StatusOK || !res.Ok() || res.Synthesis == nil {
				t.Fatalf("shed owner: HTTP %d, result %+v", resp.StatusCode, res)
			}
			st := nodes["a"].node.Status()
			if st.Forwards != 1 || st.Failovers != 1 || st.LocalDegrades != 0 {
				t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/1/0",
					st.Forwards, st.Failovers, st.LocalDegrades)
			}
			if got := nodes["c"].eng.Stats().SynthCalls; got != 1 {
				t.Fatalf("fallback c SynthCalls = %d, want 1", got)
			}
		})
	}
}

// TestForwardShedDegradesLocally: with the shedding owner the only
// remote target, the node serves the request itself — a counted local
// degrade, never a client-visible overload.
func TestForwardShedDegradesLocally(t *testing.T) {
	for name, stub := range shedOwners {
		t.Run(name, func(t *testing.T) {
			nodes := startCluster(t, []string{"a", "z"}, map[string]http.Handler{"z": stub})
			req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "z"}, "z")

			resp, res := postSynthesize(t, nodes["a"].srv.URL, req, "")
			if resp.StatusCode != http.StatusOK || !res.Ok() || res.Synthesis == nil {
				t.Fatalf("shed owner: HTTP %d, result %+v", resp.StatusCode, res)
			}
			st := nodes["a"].node.Status()
			if st.Forwards != 0 || st.LocalDegrades != 1 {
				t.Fatalf("forwards/degrades = %d/%d, want 0/1", st.Forwards, st.LocalDegrades)
			}
			if got := nodes["a"].eng.Stats().SynthCalls; got != 1 {
				t.Fatalf("a SynthCalls = %d, want 1 (local degrade)", got)
			}
		})
	}
}

// TestForwardKeepsRequestID: the owner receives the origin's request
// ID and the forwarded marker, so one ID finds both nodes' log lines.
func TestForwardKeepsRequestID(t *testing.T) {
	const id = "forward-trace-9"
	var mu sync.Mutex
	var gotID, gotFrom string
	stub := stubOwner(http.StatusOK, []nanoxbar.Event{{
		Type:   nanoxbar.EventResult,
		Result: &engine.Result{Kind: engine.KindSynthesize, Synthesis: &engine.SynthesisResult{Tech: "four-terminal", Area: 4}},
	}}, func(r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		gotID, gotFrom = r.Header.Get("X-Request-ID"), r.Header.Get(cluster.ForwardedHeader)
	})
	nodes := startCluster(t, []string{"a", "z"}, map[string]http.Handler{"z": stub})
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "z"}, "z")

	resp, res := postSynthesize(t, nodes["a"].srv.URL, req, id)
	if resp.StatusCode != http.StatusOK || res.Synthesis == nil || res.Synthesis.Area != 4 {
		t.Fatalf("forwarded request: HTTP %d, result %+v", resp.StatusCode, res)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotID != id {
		t.Fatalf("owner saw X-Request-ID %q, want %q", gotID, id)
	}
	if gotFrom != "a" {
		t.Fatalf("owner saw %s %q, want %q", cluster.ForwardedHeader, gotFrom, "a")
	}
}

// TestLeavingStopsRouting: a draining node serves everything locally —
// no forwards, no fills — so the drain window never depends on peers.
func TestLeavingStopsRouting(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	nodes["a"].node.Leave()
	if res, handled := nodes["a"].node.RouteSynthesize(context.Background(), req); handled {
		t.Fatalf("leaving node still forwarded: %+v", res)
	}
	if imp := nodes["a"].node.PeerFill(context.Background(), "any-key"); imp != nil {
		t.Fatal("leaving node still peer-filled")
	}
	st := nodes["a"].node.Status()
	if !st.Leaving || st.Forwards != 0 || st.PeerFillHits != 0 || st.PeerFillMisses != 0 {
		t.Fatalf("leaving status = %+v", st)
	}
}

// TestWarmStartFromPeer is the restart acceptance path: a node with no
// local snapshot file streams a sibling's cache and then answers the
// sibling's whole workload from cache — zero synthesis calls, 100%
// hit-rate (the criterion asks ≥90%).
func TestWarmStartFromPeer(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)

	const batch = 20
	reqs := make([]engine.Request, batch)
	for i := range reqs {
		reqs[i] = engine.Request{Kind: engine.KindSynthesize,
			Function: engine.FunctionSpec{TT: fmt.Sprintf("3:0x%02x", i+1)}}
	}
	for i, res := range submitBatch(context.Background(), nodes["a"].eng, reqs) {
		if !res.Ok() {
			t.Fatalf("warm a req %d: %v", i, res.Error)
		}
	}
	wantEntries := nodes["a"].eng.Stats().CacheEntries
	if wantEntries == 0 {
		t.Fatal("test vacuous: a cached nothing")
	}

	n, from, err := nodes["b"].node.WarmStart(context.Background())
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if from != "a" || n != wantEntries {
		t.Fatalf("WarmStart = %d entries from %q, want %d from a", n, from, wantEntries)
	}

	for i, res := range submitBatch(context.Background(), nodes["b"].eng, reqs) {
		if !res.Ok() {
			t.Fatalf("replay req %d on b: %v", i, res.Error)
		}
	}
	st := nodes["b"].eng.Stats()
	if st.SynthCalls != 0 {
		t.Fatalf("warm-started b synthesized %d times, want 0", st.SynthCalls)
	}
	if st.CacheHits < batch {
		t.Fatalf("warm-started b cache hits = %d, want ≥ %d (≥90%% criterion)", st.CacheHits, batch)
	}
}

// TestHealthzCarriesClusterBlock: the heartbeat payload peers probe is
// /healthz; its cluster block must carry the node id and the leaving
// flag the drain path flips.
func TestHealthzCarriesClusterBlock(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	var health struct {
		Cluster *cluster.Status `json:"cluster"`
	}
	get := func() {
		t.Helper()
		resp, err := http.Get(nodes["a"].srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
	}
	get()
	if health.Cluster == nil || health.Cluster.NodeID != "a" || health.Cluster.Leaving {
		t.Fatalf("healthz cluster block = %+v", health.Cluster)
	}
	if health.Cluster.RingMembers != 2 {
		t.Fatalf("ring members = %d, want 2", health.Cluster.RingMembers)
	}
	nodes["a"].node.Leave()
	get()
	if !health.Cluster.Leaving {
		t.Fatal("leaving=true not surfaced on /healthz after Leave")
	}
}
