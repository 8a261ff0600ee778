// Server protection: the shed/drain/deadline middleware on the work
// routes and the panic-recovery wrapper on every route. Together they
// bound what one bad client or one load spike can do — requests beyond
// the concurrency limit get a typed 429 with a Retry-After instead of
// queueing unboundedly, a draining server answers 503 while in-flight
// streams complete, and a handler panic costs one 500 (traceable by
// request ID) instead of the process.
package httpapi

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/resilience"
	"nanoxbar/internal/telemetry"
)

// deadlineHeader carries the client's remaining per-request budget in
// milliseconds. The server turns it into a context deadline so queue
// wait, synthesis, and streaming all observe the same budget the client
// is actually willing to wait.
const deadlineHeader = "X-Deadline-Ms"

// maxDeadline caps client-supplied budgets so a forged header cannot
// pin server resources for hours.
const maxDeadline = 10 * time.Minute

// shedRetryAfter is the Retry-After hint on 429/503 responses: long
// enough to let a load spike pass, short enough that a well-behaved
// retrying client recovers quickly.
const shedRetryAfter = 1 * time.Second

// Metric family names of the optional concurrency limiter.
const (
	metricHTTPShed            = "nanoxbar_http_shed_total"
	metricHTTPAdmitted        = "nanoxbar_http_admitted_total"
	metricHTTPLimitedInflight = "nanoxbar_http_limited_inflight"
)

// WithLimits bounds concurrent work requests (/v2/jobs and the cluster
// peer routes; ops routes are exempt so health checks and metric scrapes
// survive overload). A request that cannot get a slot within maxWait is
// shed with a structured 429 and a Retry-After header. maxConcurrent
// <= 0 leaves the server unlimited.
func WithLimits(maxConcurrent int, maxWait time.Duration) Option {
	return func(s *Server) {
		if maxConcurrent > 0 {
			s.limiter = resilience.NewLimiter(maxConcurrent, maxWait)
			s.reg.CounterFunc(metricHTTPShed,
				"Work requests rejected 429 at the concurrency limit.",
				func() float64 { return float64(s.limiter.Shed()) })
			s.reg.CounterFunc(metricHTTPAdmitted,
				"Work requests admitted through the concurrency limit.",
				func() float64 { return float64(s.limiter.Admitted()) })
			s.reg.GaugeFunc(metricHTTPLimitedInflight,
				"Work requests currently holding a concurrency slot.",
				func() float64 { return float64(s.limiter.Inflight()) })
		}
	}
}

// Drain puts the server into drain mode: work routes answer 503
// (code "unavailable") while requests already in flight — including
// open NDJSON streams — run to completion. Ops routes keep serving so
// orchestrators can watch the drain. Safe to call more than once.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// setRetryAfter stamps the Retry-After hint (whole seconds, minimum 1 —
// the header has no sub-second form).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// protect wraps a work-route handler with drain rejection, deadline
// extraction, and load shedding, in that order: a draining server
// answers before burning a concurrency slot, and the deadline starts
// covering the shed wait itself.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.drainRejects.Add(1)
			setRetryAfter(w, shedRetryAfter)
			v2Error(w, http.StatusServiceUnavailable, apierr.CodeUnavailable,
				"server is draining for shutdown")
			return
		}
		if ms := r.Header.Get(deadlineHeader); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
				d := time.Duration(n) * time.Millisecond
				if d > maxDeadline {
					d = maxDeadline
				}
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		if s.limiter != nil {
			if err := s.limiter.Acquire(r.Context()); err != nil {
				if errors.Is(err, resilience.ErrLimited) {
					setRetryAfter(w, shedRetryAfter)
					v2Error(w, http.StatusTooManyRequests, apierr.CodeOverloaded,
						"concurrency limit %d saturated", s.limiter.Cap())
					return
				}
				// The client gave up while waiting for a slot; it will
				// never read the body, but 499-style accounting still
				// wants a status.
				v2Error(w, http.StatusServiceUnavailable, apierr.CodeCanceled,
					"client canceled while awaiting admission")
				return
			}
			defer s.limiter.Release()
		}
		h(w, r)
	}
}

// recoverPanic converts a handler panic into a 500 (when the response
// has not started) plus a counted, request-ID-tagged error log — one
// bad request must not take down the daemon or go unnoticed.
func (s *Server) recoverPanic(w *statusWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	s.panics.Add(1)
	id := telemetry.RequestID(r.Context())
	s.logger.LogAttrs(r.Context(), slog.LevelError, "http handler panic",
		slog.String("path", r.URL.Path),
		slog.String("request_id", id),
		slog.Any("panic", rec),
		slog.String("stack", string(debug.Stack())))
	if w.code == 0 {
		v2Error(w, http.StatusInternalServerError, apierr.CodeInternal,
			"internal error (request %s)", id)
	}
	// Headers already sent (e.g. mid-stream): nothing more to write;
	// the connection closes and the client sees a truncated stream.
}
