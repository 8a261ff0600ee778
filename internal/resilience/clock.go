// Package resilience is the fault-tolerance substrate of the serving
// stack itself. The paper's thesis is computing correctly on unreliable
// fabric — defect maps, self-repair, redundancy — and this package
// applies the same posture to the software that serves it: every
// component assumes the thing on the other side can stall, vanish, or
// lie, and degrades in a bounded, typed, observable way instead of
// hanging or crashing.
//
// The pieces, each stdlib-only and independently testable:
//
//   - Clock: an injectable time source so retry/breaker behavior is
//     deterministic under test (Fake advances manually).
//   - RetryPolicy / Retrier: jittered exponential backoff with
//     Retry-After hints and context-deadline awareness.
//   - Breaker: a per-endpoint circuit breaker (closed → open →
//     half-open with probing) that fails fast while a dependency is
//     down instead of burning a timeout per call.
//   - ChaosTransport: a fault-injecting http.RoundTripper (latency
//     spikes, dropped connections, 5xx bursts, truncated streams),
//     seeded so a chaos soak replays exactly.
//
// internal/engine's queue-wait budget is the one admission control;
// pkg/nanoxbar/client wires the retrier and breaker around every HTTP
// call; cmd/xbarload drives the whole stack through ChaosTransport.
package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the retry and breaker machinery. Production
// code uses Wall; tests use a Fake so backoff schedules and breaker
// cooldowns are deterministic instead of sleeping for real.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// wallClock is the real time.Now/time.Timer clock.
type wallClock struct{}

// Wall returns the real-time clock.
func Wall() Clock { return wallClock{} }

//xbarvet:ignore clockdiscipline: wallClock is the one sanctioned real-time source
func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//xbarvet:ignore clockdiscipline: wallClock is the one sanctioned real-time source
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fake is a manual clock for tests. Sleep does not block: it advances
// the fake's notion of now by the full duration and records it, so a
// test asserts the exact backoff schedule a retry loop produced without
// any real waiting (and without goroutine coordination that would make
// the test racy). Safe for concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

// NewFake returns a fake clock starting at start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward without recording a sleep — the
// "time passes while nobody waits" of a breaker cooldown.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// Sleep advances now by d immediately, records d, and honors a context
// that is already done (matching the pre-sleep check real code sees).
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.sleeps = append(f.sleeps, d)
	f.mu.Unlock()
	return nil
}

// Sleeps returns a copy of every duration passed to Sleep, in order.
func (f *Fake) Sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]time.Duration, len(f.sleeps))
	copy(out, f.sleeps)
	return out
}
