// Package apierr is the error taxonomy shared by every layer of the
// serving stack: the engine classifies failures, the HTTP API maps them
// to status codes and machine-readable wire codes, and the HTTP client
// reconstructs typed errors from those codes so errors.Is/As work the
// same against an in-process engine and a remote server.
//
// The taxonomy is deliberately small:
//
//   - ErrBadSpec: the request itself is malformed (unknown benchmark,
//     unparsable expression, out-of-range limits, bad defect map).
//   - ErrInfeasible: the request is well-formed but has no solution
//     within its constraints (implementation exceeds the chip, exact
//     minimization budget exhausted).
//   - ErrCanceled: the caller's context was canceled or timed out
//     before the work completed.
//   - ErrOverloaded: the service is healthy but shed the request under
//     load (queue full past its wait budget, concurrency limit hit).
//     Retry later, ideally after the server's Retry-After hint.
//   - ErrUnavailable: the service cannot currently be reached or is
//     refusing new work (draining for shutdown, connection failures,
//     an open client-side circuit breaker).
//   - ErrInternal: everything else (bugs, panics).
//
// All constructors return a *Error that wraps one of the sentinels, so
// callers use errors.Is(err, apierr.ErrBadSpec) rather than string
// matching, and errors.As(err, *apierr.Error) to reach the wire code.
package apierr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the taxonomy. Compare with errors.Is.
var (
	ErrBadSpec     = errors.New("bad request spec")
	ErrInfeasible  = errors.New("infeasible")
	ErrCanceled    = errors.New("canceled")
	ErrOverloaded  = errors.New("overloaded")
	ErrUnavailable = errors.New("unavailable")
	ErrInternal    = errors.New("internal error")
)

// Wire codes, one per sentinel. They travel in JSON error bodies and in
// engine results so remote callers can reconstruct the sentinel.
const (
	CodeBadSpec     = "bad_spec"
	CodeInfeasible  = "infeasible"
	CodeCanceled    = "canceled"
	CodeOverloaded  = "overloaded"
	CodeUnavailable = "unavailable"
	CodeInternal    = "internal"
)

// Error is a classified failure: one of the taxonomy sentinels plus
// human-readable detail. Unwrap returns the sentinel, so
// errors.Is(err, ErrBadSpec) holds for every BadSpec(...) error,
// including ones reconstructed from a wire code on the client side.
type Error struct {
	Sentinel error // one of the Err* sentinels above
	Detail   string
}

func (e *Error) Error() string {
	if e.Detail == "" {
		return e.Sentinel.Error()
	}
	return e.Detail
}

func (e *Error) Unwrap() error { return e.Sentinel }

// Code returns the wire code of the sentinel.
func (e *Error) Code() string { return CodeOf(e.Sentinel) }

func wrap(sentinel error, format string, args ...any) error {
	return &Error{Sentinel: sentinel, Detail: fmt.Sprintf(format, args...)}
}

// BadSpec classifies a malformed request.
func BadSpec(format string, args ...any) error { return wrap(ErrBadSpec, format, args...) }

// Infeasible classifies a well-formed request with no solution within
// its constraints.
func Infeasible(format string, args ...any) error { return wrap(ErrInfeasible, format, args...) }

// Internal classifies an unexpected failure.
func Internal(format string, args ...any) error { return wrap(ErrInternal, format, args...) }

// Overloaded classifies a request shed under load: the service is
// healthy but declined the work rather than queue it indefinitely.
func Overloaded(format string, args ...any) error { return wrap(ErrOverloaded, format, args...) }

// Canceled classifies a context failure, keeping the original cause
// (context.Canceled or context.DeadlineExceeded) in the detail.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return wrap(ErrCanceled, "canceled: %v", cause)
}

// CodeOf maps any error onto its wire code. Context errors count as
// canceled even when produced outside this package (e.g. by net/http).
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBadSpec):
		return CodeBadSpec
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	case errors.Is(err, ErrInfeasible):
		return CodeInfeasible
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrUnavailable):
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// FromCode reconstructs a typed error from its wire form, so an error
// that crossed an HTTP boundary still satisfies errors.Is against the
// taxonomy sentinels. Unknown codes map to ErrInternal.
func FromCode(code, detail string) error {
	var sentinel error
	switch code {
	case "":
		return nil
	case CodeBadSpec:
		sentinel = ErrBadSpec
	case CodeInfeasible:
		sentinel = ErrInfeasible
	case CodeCanceled:
		sentinel = ErrCanceled
	case CodeOverloaded:
		sentinel = ErrOverloaded
	case CodeUnavailable:
		sentinel = ErrUnavailable
	default:
		sentinel = ErrInternal
	}
	return &Error{Sentinel: sentinel, Detail: detail}
}

// Classify wraps an arbitrary error into the taxonomy, preserving
// already-classified errors unchanged. Bare context errors become
// ErrCanceled; anything unrecognized becomes ErrInternal.
func Classify(err error) error {
	if err == nil {
		return nil
	}
	var ae *Error
	if errors.As(err, &ae) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled(err)
	}
	return wrap(ErrInternal, "%v", err)
}
