package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/pkg/nanoxbar"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// jobResults posts reqs to /v2/jobs and returns their outcomes in
// request order; an error event becomes a Result carrying its message
// and code.
func jobResults(t *testing.T, url string, reqs ...engine.Request) []engine.Result {
	t.Helper()
	code, evs := readEvents(t, url, nanoxbar.JobsRequest{Requests: reqs})
	if code != http.StatusOK {
		t.Fatalf("POST /v2/jobs: status %d: %+v", code, evs)
	}
	out := make([]engine.Result, len(reqs))
	for _, ev := range evs {
		switch ev.Type {
		case nanoxbar.EventResult:
			out[ev.Index] = *ev.Result
		case nanoxbar.EventError:
			out[ev.Index] = engine.Result{Error: ev.Error.Message, Code: ev.Error.Code}
		}
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Fatalf("healthz body %+v (err %v)", body, err)
	}
	if body.Cache.Entries != 0 || body.Cache.LoadedFromSnapshot != 0 {
		t.Fatalf("cold server reports cache %+v, want empty", body.Cache)
	}
	if body.Fault.DiesMapped != 0 || body.Fault.DefectMapsGenerated != 0 || body.Fault.MeanMapAttempts != 0 {
		t.Fatalf("cold server reports fault work %+v, want zeros", body.Fault)
	}
}

// TestFaultCountersReported drives map and yield requests and checks
// the fault-path counters surface consistently on /healthz and /stats.
func TestFaultCountersReported(t *testing.T) {
	ts := newTestServer(t)
	const chips = 7
	for i, res := range jobResults(t, ts.URL, engine.Request{
		Kind:     engine.KindMap,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Seed:     1,
	}, engine.Request{
		Kind:     engine.KindYield,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Chips:    chips,
		Seed:     2,
	}) {
		if !res.Ok() {
			t.Fatalf("request %d: %s", i, res.Error)
		}
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health healthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1 + chips); health.Fault.DiesMapped != want {
		t.Fatalf("healthz dies_mapped = %d, want %d", health.Fault.DiesMapped, want)
	}
	if health.Fault.DefectMapsGenerated != uint64(1+chips) {
		t.Fatalf("healthz defect_maps_generated = %d, want %d", health.Fault.DefectMapsGenerated, 1+chips)
	}
	if health.Fault.MeanMapAttempts < 1 {
		t.Fatalf("healthz mean_map_attempts = %v, want >= 1", health.Fault.MeanMapAttempts)
	}
	// Every yield die resolved either on the fast candidate schedule or
	// by scalar demotion; the KindMap die counts in neither bucket.
	if health.Fault.DiesCheckedFast+health.Fault.DiesDemotedScalar != chips {
		t.Fatalf("healthz dies_checked_fast %d + dies_demoted_scalar %d, want sum %d",
			health.Fault.DiesCheckedFast, health.Fault.DiesDemotedScalar, chips)
	}

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats engine.Stats
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.DiesMapped != health.Fault.DiesMapped ||
		stats.DefectMapsGenerated != health.Fault.DefectMapsGenerated ||
		stats.MeanMapAttempts != health.Fault.MeanMapAttempts ||
		stats.DiesCheckedFast != health.Fault.DiesCheckedFast ||
		stats.DiesDemotedScalar != health.Fault.DiesDemotedScalar {
		t.Fatalf("stats fault counters %+v disagree with healthz %+v", stats, health.Fault)
	}
	if stats.MapAttempts < stats.DiesMapped {
		t.Fatalf("map_attempts_total %d below dies_mapped %d", stats.MapAttempts, stats.DiesMapped)
	}
}

// TestHealthzAndStatsReportPersistence covers the warm-restart
// observability: after seeding the engine from a snapshot, /healthz and
// /stats must both report the entry count and how many entries came
// from the snapshot.
func TestHealthzAndStatsReportPersistence(t *testing.T) {
	// Warm engine: synthesize, snapshot, reload into a fresh engine.
	warm := engine.New(engine.Config{Workers: 2, CacheSize: 64})
	if res := warm.Do(context.Background(), engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}}, nil); !res.Ok() {
		t.Fatalf("warmup: %s", res.Error)
	}
	var snap bytes.Buffer
	n, err := warm.WriteCacheSnapshot(&snap)
	warm.Close()
	if err != nil || n != 1 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}

	eng := engine.New(engine.Config{Workers: 2, CacheSize: 64})
	t.Cleanup(eng.Close)
	if loaded, err := eng.ReadCacheSnapshot(&snap); err != nil || loaded != 1 {
		t.Fatalf("load: loaded=%d err=%v", loaded, err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Cache map[string]json.Number `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]json.Number{"entries": "1", "loaded_from_snapshot": "1"}
	if !reflect.DeepEqual(health.Cache, want) {
		t.Fatalf("healthz cache %v, want exactly %v", health.Cache, want)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st engine.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("shard")) {
		t.Fatalf("stats carries a shard field: %s", raw)
	}
	if st.CacheEntries != 1 || st.CacheLoaded != 1 {
		t.Fatalf("stats entries=%d loaded=%d, want 1/1", st.CacheEntries, st.CacheLoaded)
	}
	// The loaded entry must serve as a hit, with no synthesis run.
	res := jobResults(t, ts.URL, engine.Request{
		Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"},
	})[0]
	if res.Synthesis == nil || !res.Synthesis.CacheHit {
		t.Fatalf("warm-loaded function was not a cache hit: %+v", res)
	}
}

func TestSynthesizeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	synth := engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Expr: "x1x2 + x1'x2'"}}
	res := jobResults(t, ts.URL, synth)[0]
	if res.Synthesis == nil || res.Synthesis.Area == 0 {
		t.Fatalf("bad synthesis result: %+v", res)
	}
	if res.Synthesis.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	// Same function again: must hit.
	if res = jobResults(t, ts.URL, synth)[0]; res.Synthesis == nil || !res.Synthesis.CacheHit {
		t.Fatalf("second request missed the cache: %+v", res)
	}
	res = jobResults(t, ts.URL, engine.Request{
		Kind:     engine.KindCompare,
		Function: engine.FunctionSpec{Name: "maj3"},
	})[0]
	if res.Compare == nil {
		t.Fatalf("bad compare result: %+v", res)
	}
}

func TestMapEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	res := jobResults(t, ts.URL, engine.Request{
		Function: engine.FunctionSpec{Name: "maj3"}, // kind defaults to map
		Density:  0.05,
		Seed:     1,
	})[0]
	if res.Map == nil {
		t.Fatalf("bad map result: %+v", res)
	}
	// Engine-level failures arrive as typed error events.
	res = jobResults(t, ts.URL, engine.Request{
		Function: engine.FunctionSpec{Name: "no-such-benchmark"},
	})[0]
	if res.Code != apierr.CodeBadSpec || res.Error == "" {
		t.Fatalf("engine failure = %+v, want a bad_spec error event", res)
	}
	// Malformed JSON is a 400.
	r, err := http.Post(ts.URL+"/v2/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", r.StatusCode)
	}
	// GET is not allowed.
	g, err := http.Get(ts.URL + "/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/jobs: status %d, want 405", g.StatusCode)
	}
}

// TestBatchHundredChipsOneMiss is the acceptance scenario end to end
// over HTTP: 100 per-chip mapping requests for one function, exactly
// one underlying synthesis, deterministic results for fixed seeds.
func TestBatchHundredChipsOneMiss(t *testing.T) {
	ts := newTestServer(t)
	var batch []engine.Request
	for i := 0; i < 100; i++ {
		batch = append(batch, engine.Request{
			Kind:     engine.KindMap,
			Function: engine.FunctionSpec{Name: "maj3"},
			Density:  0.05,
			Seed:     int64(i),
		})
	}
	results := jobResults(t, ts.URL, batch...)
	for i, r := range results {
		if r.Map == nil {
			t.Fatalf("result %d has no map payload: %+v", i, r)
		}
	}

	// /stats must report exactly one synthesis and 99 cache hits.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st engine.Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SynthCalls != 1 || st.CacheMisses != 1 || st.CacheHits != 99 {
		t.Fatalf("stats synth=%d miss=%d hit=%d, want 1/1/99", st.SynthCalls, st.CacheMisses, st.CacheHits)
	}
	if st.Fingerprint == "" {
		t.Fatal("stats missing implementation fingerprint")
	}

	// Determinism: a fresh server given the same batch returns the
	// same results.
	ts2 := newTestServer(t)
	results2 := jobResults(t, ts2.URL, batch...)
	for i := range results {
		a, _ := json.Marshal(results[i])
		b, _ := json.Marshal(results2[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("result %d differs across servers:\n%s\n%s", i, a, b)
		}
	}
}

// TestPprofOptIn checks /debug/pprof/ is mounted only behind the
// -pprof flag, and that /stats carries the lattice evaluation counters.
func TestPprofOptIn(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: status %d, want 404", resp.StatusCode)
	}

	eng := engine.New(engine.Config{Workers: 2, CacheSize: 8})
	t.Cleanup(eng.Close)
	tsp := httptest.NewServer(New(eng, WithPprof()))
	t.Cleanup(tsp.Close)
	resp, err = http.Get(tsp.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}

	// A lattice synthesis must move the process-wide evaluation
	// counters surfaced in /stats. The counters are cumulative across
	// the whole test binary, so assert on the delta around this
	// request, not on being nonzero.
	getStats := func() engine.Stats {
		t.Helper()
		sr, err := http.Get(tsp.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Body.Close()
		var st engine.Stats
		if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := getStats()
	jobResults(t, tsp.URL, engine.Request{
		Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Expr: "x1x2 + x2x3 + x1x3"},
	})
	after := getStats()
	if after.Evaluation.FastImplements <= before.Evaluation.FastImplements ||
		after.Evaluation.WordBlocks <= before.Evaluation.WordBlocks {
		t.Fatalf("stats evaluation counters did not advance: before %+v after %+v",
			before.Evaluation, after.Evaluation)
	}
}

func TestBatchLimits(t *testing.T) {
	ts := newTestServer(t)
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{Requests: []engine.Request{}})
	if code != http.StatusBadRequest || evs[0].Error.Code != apierr.CodeBadSpec {
		t.Fatalf("empty jobs: status %d %+v, want 400 bad_spec", code, evs[0].Error)
	}
	big := make([]engine.Request, maxBatchSize+1)
	for i := range big {
		big[i] = engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}}
	}
	code, evs = readEvents(t, ts.URL, nanoxbar.JobsRequest{Requests: big})
	if code != http.StatusRequestEntityTooLarge || evs[0].Error.Code != apierr.CodeBadSpec {
		t.Fatalf("oversized jobs: status %d %+v, want 413 bad_spec", code, evs[0].Error)
	}
}

func TestBatchMixedKindsAndDefaulting(t *testing.T) {
	ts := newTestServer(t)
	res := jobResults(t, ts.URL,
		engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}},
		engine.Request{Function: engine.FunctionSpec{Name: "maj3"}, Density: 0.05, Seed: 3}, // kind defaults to map
		engine.Request{Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj3"}, Density: 0.03, Chips: 10, ChipSize: 16, Seed: 4},
		engine.Request{Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "not-a-benchmark"}},
	)
	if res[0].Synthesis == nil || res[1].Map == nil || res[2].Yield == nil {
		t.Fatalf("payloads not tied to their request index: %+v", res)
	}
	if res[2].Yield.Chips != 10 {
		t.Fatalf("yield chips %d, want 10", res[2].Yield.Chips)
	}
	if res[3].Error == "" || res[3].Code != apierr.CodeBadSpec {
		t.Fatalf("failed request lost its error: %+v", res[3])
	}
}
