package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
)

// The work API: POST /v2/jobs takes a nanoxbar.JobsRequest and responds
// with an NDJSON event stream (nanoxbar.Event per line). Results are
// flushed the moment their worker finishes — completion order, not
// submission order — so a batch of per-chip mappings streams back
// while slower yield sweeps still run, and with stream_dies a yield
// request emits one event per die. The request context is threaded
// into the engine: a dropped connection cancels queued requests and
// stops in-flight sweeps at the next die boundary.

// v2Error writes the server's one error body, a nanoxbar.ErrorResponse
// ({"error":{code,message}}). Every non-2xx response uses it: body
// failures that precede a stream, drain and shed rejections, panics,
// and ops-route errors.
func v2Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, nanoxbar.ErrorResponse{Error: nanoxbar.WireError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// eventStream serializes NDJSON events onto one response, flushing
// after every line so clients observe results as they complete. Every
// frame is stamped with the stream's request ID, so a single frame
// fished out of a log pipeline still names the request it belongs to.
type eventStream struct {
	mu    sync.Mutex
	enc   *json.Encoder
	fl    http.Flusher
	reqID string
	err   bool // a write failed (client gone); drop further events
}

func newEventStream(w http.ResponseWriter, reqID string) *eventStream {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	fl, _ := w.(http.Flusher)
	return &eventStream{enc: enc, fl: fl, reqID: reqID}
}

func (es *eventStream) send(ev nanoxbar.Event) {
	ev.RequestID = es.reqID
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.err {
		return
	}
	if err := es.enc.Encode(ev); err != nil {
		es.err = true
		return
	}
	if es.fl != nil {
		es.fl.Flush()
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		v2Error(w, http.StatusMethodNotAllowed, apierr.CodeBadSpec, "use POST")
		return
	}
	var jobs nanoxbar.JobsRequest
	if err := decodeBody(w, r, &jobs); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			v2Error(w, http.StatusRequestEntityTooLarge, apierr.CodeBadSpec,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		v2Error(w, http.StatusBadRequest, apierr.CodeBadSpec, "bad request body: %v", err)
		return
	}
	if len(jobs.Requests) == 0 {
		v2Error(w, http.StatusBadRequest, apierr.CodeBadSpec, "empty jobs request")
		return
	}
	if len(jobs.Requests) > maxBatchSize {
		v2Error(w, http.StatusRequestEntityTooLarge, apierr.CodeBadSpec,
			"batch of %d exceeds limit %d", len(jobs.Requests), maxBatchSize)
		return
	}
	for i := range jobs.Requests {
		if jobs.Requests[i].Kind == "" {
			jobs.Requests[i].Kind = engine.KindMap
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	es := newEventStream(w, telemetry.RequestID(r.Context()))

	var errs int
	var errMu sync.Mutex
	emit := func(i int, res engine.Result) {
		if err := res.TypedErr(); err != nil {
			errMu.Lock()
			errs++
			errMu.Unlock()
			es.send(nanoxbar.Event{Type: nanoxbar.EventError, Index: i, Error: nanoxbar.WireErrorFrom(err)})
			return
		}
		es.send(nanoxbar.Event{Type: nanoxbar.EventResult, Index: i, Result: &res})
	}

	// Cluster routing: synthesis requests in the batch take the
	// forward → failover → local-degrade ladder (cluster.RouteSynthesize),
	// each on its own goroutine so a slow forward never stalls the local
	// stream. Indices into the original batch are preserved, so frames
	// interleave transparently. Everything else — and every request on
	// an already-forwarded stream (loop marker) — runs locally.
	submit := jobs.Requests
	orig := make([]int, len(jobs.Requests))
	for i := range orig {
		orig[i] = i
	}
	var routeWG sync.WaitGroup
	if s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		submit = submit[:0:0]
		orig = orig[:0]
		for i, req := range jobs.Requests {
			if req.Kind != engine.KindSynthesize {
				submit = append(submit, req)
				orig = append(orig, i)
				continue
			}
			routeWG.Add(1)
			go func(i int, req engine.Request) {
				defer routeWG.Done()
				res, handled := s.cluster.RouteSynthesize(r.Context(), req)
				if !handled {
					res = s.eng.Do(r.Context(), req, nil)
				}
				emit(i, res)
			}(i, req)
		}
	}

	var onDie func(req, die int, mr *engine.MapResult, err error)
	if jobs.StreamDies {
		onDie = func(req, die int, mr *engine.MapResult, err error) {
			es.send(nanoxbar.Event{
				Type: nanoxbar.EventDie, Index: orig[req], Die: die,
				DieMap: mr, DieError: nanoxbar.WireErrorFrom(err),
			})
		}
	}
	if len(submit) > 0 {
		s.eng.Submit(r.Context(), submit, func(i int, res engine.Result) {
			emit(orig[i], res)
		}, onDie)
	}
	routeWG.Wait()

	es.send(nanoxbar.Event{Type: nanoxbar.EventDone, Done: &nanoxbar.JobsSummary{
		Results: len(jobs.Requests), Errors: errs,
	}})
}
