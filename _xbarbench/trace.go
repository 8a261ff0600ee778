package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. Every span of one request carries the request ID the SDK
// forwards as X-Request-ID, which is what links them.
const (
	layerClient    = "client"    // the SDK call
	layerTransport = "transport" // RoundTrip until the response body's EOF
	layerHandler   = "handler"   // the httpapi server's ServeHTTP
)

// span is one layer's interval for one request. Times are nanoseconds
// since the recorder's base.
type span struct {
	ID    string `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Blocked (transport only) lists the intervals the client spent
	// inside RoundTrip and Body.Read, waiting on the network. Between
	// them the SDK decodes frames: client time, not net time.
	Blocked [][2]int64 `json:"blocked,omitempty"`
	// Frames and Flushes (handler only) count the NDJSON lines written
	// and the flushes issued; WriteNs is the time spent in the response
	// writer's Write and Flush.
	Frames  int   `json:"frames,omitempty"`
	Flushes int   `json:"flushes,omitempty"`
	WriteNs int64 `json:"write_ns,omitempty"`
}

// recorder keeps spans in memory while on; they are written out when
// the run ends. The probes cost one atomic load while it is off.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	conns atomic.Int64 // connections the server accepted while on
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// connState counts the connections the server accepts: the SDK's
// connection reuse shows as connections per request.
func (r *recorder) connState(_ net.Conn, s http.ConnState) {
	if s == http.StateNew && r.on.Load() {
		r.conns.Add(1)
	}
}

// handler wraps the server's handler with the handler span.
func (r *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		fw := &frameWriter{ResponseWriter: w, rec: r}
		start := r.now()
		next.ServeHTTP(fw, req)
		r.add(span{ID: req.Header.Get("X-Request-ID"), Layer: layerHandler,
			Start: start, End: r.now(), Frames: fw.frames, Flushes: fw.flushes, WriteNs: fw.writeNs})
	})
}

// frameWriter counts and times the NDJSON lines written and the
// flushes, passing Flush through (the v2 stream type-asserts its writer
// to http.Flusher). The stream serializes its writes, so the counters
// need no lock. A streamed die's frame is written from the engine
// worker's die callback, so its write time also lies inside the
// engine's request time.
type frameWriter struct {
	http.ResponseWriter
	rec             *recorder
	frames, flushes int
	writeNs         int64
}

func (w *frameWriter) Write(b []byte) (int, error) {
	t := w.rec.now()
	w.frames += bytes.Count(b, []byte{'\n'})
	n, err := w.ResponseWriter.Write(b)
	w.writeNs += w.rec.now() - t
	return n, err
}

func (w *frameWriter) Flush() {
	t := w.rec.now()
	w.flushes++
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
	w.writeNs += w.rec.now() - t
}

// transport wraps the client's RoundTripper with the transport span.
func (r *recorder) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !r.on.Load() {
			return next.RoundTrip(req)
		}
		s := &span{ID: req.Header.Get("X-Request-ID"), Layer: layerTransport, Start: r.now()}
		resp, err := next.RoundTrip(req)
		t := r.now()
		s.Blocked = append(s.Blocked, [2]int64{s.Start, t})
		if err != nil {
			s.End = t
			r.add(*s)
			return resp, err
		}
		resp.Body = &tracedBody{ReadCloser: resp.Body, rec: r, s: s}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// tracedBody ends the transport span at EOF (or Close, whichever comes
// first: the SDK stops reading at the done frame) and records the time
// spent blocked in Read.
type tracedBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	done bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	t0 := b.rec.now()
	n, err := b.ReadCloser.Read(p)
	t1 := b.rec.now()
	b.s.Blocked = append(b.s.Blocked, [2]int64{t0, t1})
	if err != nil {
		b.finish(t1)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish(b.rec.now())
	return err
}

func (b *tracedBody) finish(t int64) {
	if b.done {
		return
	}
	b.done = true
	b.s.End = t
	b.rec.add(*b.s)
}

// traceHeader is the first line of a span file: what the summarizer
// needs besides the spans.
type traceHeader struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Ops is the number of requests of the traced phase, and EngineUs
	// the engine's queue-wait plus execution time summed over them
	// (from its stage and request histograms).
	Ops      int     `json:"ops"`
	EngineUs float64 `json:"engine_us"`
	// Layers holds the per-layer metrics measured without spans:
	// counter deltas, runtime statistics and sub-stage replays.
	Layers map[string]float64 `json:"layers"`
}

// writeTrace writes the span file: the header, then one span per line.
func writeTrace(path string, h traceHeader, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(h)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readTrace parses a span file.
func readTrace(path string) (traceHeader, []span, error) {
	var h traceHeader
	f, err := os.Open(path)
	if err != nil {
		return h, nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	var spans []span
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return h, spans, nil
		} else if err != nil {
			return h, nil, fmt.Errorf("%s: span %d: %w", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
}

// union merges intervals into sorted disjoint ones.
func union(iv [][2]int64) [][2]int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var out [][2]int64
	for _, x := range s {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered is the part of [a, b] that disjoint intervals iv cover.
func covered(iv [][2]int64, a, b int64) int64 {
	var t int64
	for _, x := range iv {
		lo, hi := max(x[0], a), min(x[1], b)
		if hi > lo {
			t += hi - lo
		}
	}
	return t
}

// spanSummary is the span-derived part of the per-layer table.
type spanSummary struct {
	complete   int // requests with all three spans
	incomplete int
	clientSelf float64 // µs per request
	netSelf    float64
	handler    float64
	frames     float64 // per request
	flushes    float64
	write      float64 // µs per request in Write and Flush
}

// summarizeSpans computes self times: a layer's span minus the part of
// it its child covers. The client's child is the transport's blocked
// time; the net's is the handler span.
func summarizeSpans(spans []span) spanSummary {
	type req struct{ client, transport, handler *span }
	byID := make(map[string]*req)
	for i := range spans {
		s := &spans[i]
		r := byID[s.ID]
		if r == nil {
			r = &req{}
			byID[s.ID] = r
		}
		switch s.Layer {
		case layerClient:
			r.client = s
		case layerTransport:
			r.transport = s
		case layerHandler:
			r.handler = s
		}
	}
	var sum spanSummary
	var client, net, handler, frames, flushes, write int64
	for _, r := range byID {
		if r.client == nil || r.transport == nil || r.handler == nil {
			sum.incomplete++
			continue
		}
		sum.complete++
		blocked := union(r.transport.Blocked)
		c, h := r.client, r.handler
		client += c.End - c.Start - covered(blocked, c.Start, c.End)
		net += covered(blocked, r.transport.Start, r.transport.End) - covered(blocked, h.Start, h.End)
		handler += h.End - h.Start
		frames += int64(h.Frames)
		flushes += int64(h.Flushes)
		write += h.WriteNs
	}
	if sum.complete > 0 {
		n := float64(sum.complete)
		sum.clientSelf = float64(client) / 1e3 / n
		sum.netSelf = float64(net) / 1e3 / n
		sum.handler = float64(handler) / 1e3 / n
		sum.frames = float64(frames) / n
		sum.flushes = float64(flushes) / n
		sum.write = float64(write) / 1e3 / n
	}
	return sum
}

// summarize turns a span file's contents into the per-layer metrics.
func summarize(h traceHeader, spans []span) (map[string]float64, spanSummary) {
	s := summarizeSpans(spans)
	m := make(map[string]float64, len(layerMetrics))
	for k, v := range h.Layers {
		m[k] = v
	}
	m["client.self_us"] = s.clientSelf
	m["net.self_us"] = s.netSelf
	if h.Ops > 0 && s.complete > 0 {
		m["httpapi.self_us"] = s.handler - h.EngineUs/float64(h.Ops)
		m["httpapi.frames_per_op"] = s.frames
		m["httpapi.flushes_per_op"] = s.flushes
		m["httpapi.us_per_frame"] = ratio(s.write, s.frames)
	}
	if syn := m["synth.synthesize_us"]; syn > 0 {
		m["synth.explained_ratio"] = (m["latsynth.dual_us"] + m["pcircuit.best_us"] + m["dreduce.synthesize_us"]) / syn
	}
	return m, s
}
