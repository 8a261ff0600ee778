// Server protection: the drain/deadline middleware on the work routes
// and the panic-recovery wrapper on every route. Together they bound
// what one bad client can do — a draining server answers 503 while
// in-flight streams complete, a client deadline caps the work done on
// its behalf, and a handler panic costs one 500 (traceable by request
// ID) instead of the process. Load shedding happens only at the
// engine's queue admission (typed "overloaded").
package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"nanoxbar/internal/apierr"
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

// drainRetryAfter is the Retry-After hint on drain 503s, in whole
// seconds (the header has no sub-second form): long enough for a load
// balancer to route elsewhere, short enough that a retrying client
// recovers quickly.
const drainRetryAfter = "1"

// Drain puts the server into drain mode: work routes answer 503
// (code "unavailable") while requests already in flight — including
// open NDJSON streams — run to completion. Ops routes keep serving so
// orchestrators can watch the drain. Safe to call more than once.
func (s *Server) Drain() { s.draining.Store(true) }

// protect wraps a work-route handler with drain rejection and then
// deadline extraction: a draining server answers before any work
// starts, and the client's budget covers queue wait, synthesis and
// streaming alike.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.drainRejects.Add(1)
			w.Header().Set("Retry-After", drainRetryAfter)
			v2Error(w, http.StatusServiceUnavailable, apierr.CodeUnavailable,
				"server is draining for shutdown")
			return
		}
		if ms := r.Header.Get(deadlineHeader); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
				// Cap before converting: past ≈9.2e12 ms the product
				// wraps negative and would cancel the request at once.
				n = min(n, maxDeadline.Milliseconds())
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(n)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
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
