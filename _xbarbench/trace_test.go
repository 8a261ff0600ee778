package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
)

func TestUnionAndCovered(t *testing.T) {
	u := union([][2]int64{{50, 60}, {10, 20}, {15, 30}, {30, 35}})
	if want := [][2]int64{{10, 35}, {50, 60}}; !reflect.DeepEqual(u, want) {
		t.Fatalf("union %v, want %v", u, want)
	}
	if got := covered(u, 20, 55); got != 15+5 {
		t.Errorf("covered %d, want 20", got)
	}
}

// TestSummarizeSelfTimes checks the self-time arithmetic on two
// hand-built requests (times in µs, stored as ns).
func TestSummarizeSelfTimes(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	var spans []span
	for _, id := range []string{"a", "b"} {
		spans = append(spans,
			span{ID: id, Layer: layerClient, Start: us(0), End: us(100)},
			// Blocked 30 + 35 µs; the client decodes in the gap.
			span{ID: id, Layer: layerTransport, Start: us(10), End: us(95),
				Blocked: [][2]int64{{us(60), us(95)}, {us(10), us(40)}}},
			// Blocked outside the handler: 10..20 and 80..95.
			span{ID: id, Layer: layerHandler, Start: us(20), End: us(80), Frames: 3, Flushes: 2, WriteNs: us(12)})
	}
	spans = append(spans, span{ID: "lost", Layer: layerClient, Start: 0, End: us(5)})
	h := traceHeader{Workload: "serve_hot", Ops: 2, EngineUs: 2 * 45,
		Layers: map[string]float64{"engine.queue_wait_us": 4}}

	path := filepath.Join(t.TempDir(), "spans.ndjson")
	if err := writeTrace(path, h, spans); err != nil {
		t.Fatal(err)
	}
	h2, spans2, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, h2) || !reflect.DeepEqual(spans, spans2) {
		t.Fatalf("span file did not round-trip")
	}
	m, s := summarize(h2, spans2)
	if s.complete != 2 || s.incomplete != 1 {
		t.Errorf("complete %d incomplete %d", s.complete, s.incomplete)
	}
	for k, want := range map[string]float64{
		"client.self_us":         35,
		"net.self_us":            25,
		"httpapi.self_us":        60 - 45,
		"httpapi.frames_per_op":  3,
		"httpapi.flushes_per_op": 2,
		"httpapi.us_per_frame":   4,
		"engine.queue_wait_us":   4,
	} {
		if math.Abs(m[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestExplainedRatio(t *testing.T) {
	m, _ := summarize(traceHeader{Layers: map[string]float64{
		"synth.synthesize_us": 200, "latsynth.dual_us": 50, "latsynth.covers_us": 20,
		"pcircuit.best_us": 100, "dreduce.synthesize_us": 30,
	}}, nil)
	if got := m["synth.explained_ratio"]; got != 0.9 {
		t.Errorf("explained %v, want 0.9 (covers are inside dual)", got)
	}
}

// TestProbesRecordOnlyWhileOn drives a request through both probes.
func TestProbesRecordOnlyWhileOn(t *testing.T) {
	rec := newRecorder()
	srv := httptest.NewServer(rec.handler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}\n"))
		w.(http.Flusher).Flush()
		w.Write([]byte("{}\n"))
	})))
	defer srv.Close()
	hc := &http.Client{Transport: rec.transport(http.DefaultTransport)}
	get := func() {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		req.Header.Set("X-Request-ID", "r1")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// The server sends the final chunk only after the handler span is
		// recorded, so reading to EOF orders the two.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get()
	if n := len(rec.take()); n != 0 {
		t.Fatalf("recorded %d spans while off", n)
	}
	rec.on.Store(true)
	get()
	spans := rec.take()
	if len(spans) != 2 {
		t.Fatalf("spans %+v, want transport and handler", spans)
	}
	for _, s := range spans {
		if s.ID != "r1" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
		if s.Layer == layerHandler && (s.Frames != 2 || s.Flushes != 1 || s.WriteNs <= 0) {
			t.Errorf("handler span %+v, want 2 frames and 1 flush", s)
		}
		if s.Layer == layerTransport && len(s.Blocked) == 0 {
			t.Errorf("transport span without blocked time: %+v", s)
		}
	}
}
