package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/core"
)

// occupyWorkers parks every pool worker on a blocking job, returning
// the release function. The test can then fill and overflow the queue
// deterministically.
func occupyWorkers(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	block := make(chan struct{})
	for i := 0; i < e.workers; i++ {
		started := make(chan struct{})
		e.pool.jobs <- func() { close(started); <-block }
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never picked up the blocking job")
		}
	}
	var released bool
	return func() {
		if !released {
			released = true
			close(block)
		}
	}
}

func TestAdmissionShedsWhenQueueSaturated(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 8, QueueDepth: 1, MaxQueueWait: time.Millisecond})
	defer e.Close()
	release := occupyWorkers(t, e)
	defer release()
	e.pool.jobs <- func() {} // fill the single queue slot

	res := e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}}, nil)
	if res.Ok() {
		t.Fatal("saturated engine accepted the request")
	}
	if !errors.Is(res.TypedErr(), apierr.ErrOverloaded) {
		t.Fatalf("TypedErr = %v, want ErrOverloaded", res.TypedErr())
	}
	if res.Code != apierr.CodeOverloaded {
		t.Fatalf("Code = %q, want %q", res.Code, apierr.CodeOverloaded)
	}
	if st := e.Stats(); st.Shed != 1 || st.Failures != 1 {
		t.Fatalf("stats: shed=%d failures=%d, want 1/1", st.Shed, st.Failures)
	}

	// Released workers drain the queue; the same request is admitted.
	release()
	if res := e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}}, nil); !res.Ok() {
		t.Fatalf("post-drain request failed: %s", res.Error)
	}
}

func TestAdmissionBlocksForeverWithoutBudget(t *testing.T) {
	// MaxQueueWait 0 preserves the original blocking submission: a full
	// queue delays, never sheds.
	e := New(Config{Workers: 1, CacheSize: 8, QueueDepth: 1})
	defer e.Close()
	release := occupyWorkers(t, e)
	e.pool.jobs <- func() {}
	go func() { time.Sleep(10 * time.Millisecond); release() }()

	res := e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}}, nil)
	if !res.Ok() {
		t.Fatalf("blocking submission failed: %s (code %s)", res.Error, res.Code)
	}
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("shed = %d, want 0", st.Shed)
	}
}

func TestDegradationAfterQueueWait(t *testing.T) {
	// DegradeAfter of 1ns: any real queue wait exceeds it, so every
	// request that does not pin Options runs degraded.
	e := New(Config{Workers: 2, CacheSize: 8, DegradeAfter: time.Nanosecond})
	defer e.Close()

	res := e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}}, nil)
	if !res.Ok() {
		t.Fatalf("degraded request failed: %s", res.Error)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if res.Synthesis == nil || res.Synthesis.Area <= 0 {
		t.Fatalf("degraded synthesis produced no implementation: %+v", res.Synthesis)
	}
	if st := e.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}

	// Pinned options opt out of degradation.
	opts := core.DefaultOptions()
	res = e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Options: &opts}, nil)
	if !res.Ok() || res.Degraded {
		t.Fatalf("pinned-options request: ok=%v degraded=%v", res.Ok(), res.Degraded)
	}
	if st := e.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter moved for pinned options: %d", st.Degraded)
	}
}

func TestDegradedMatchesExactFunction(t *testing.T) {
	// The degraded path trades area, never correctness: both flows must
	// implement the same function (the engine's synth checks equivalence
	// internally; here we just confirm both succeed and the degraded
	// area is no better than exact).
	exact := New(Config{Workers: 1, CacheSize: 8})
	defer exact.Close()
	deg := New(Config{Workers: 1, CacheSize: 8, DegradeAfter: time.Nanosecond})
	defer deg.Close()

	for _, fn := range []string{"maj3", "xor4"} {
		re := exact.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: fn}}, nil)
		rd := deg.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: fn}}, nil)
		if !re.Ok() || !rd.Ok() {
			t.Fatalf("%s: exact ok=%v degraded ok=%v", fn, re.Ok(), rd.Ok())
		}
		if !rd.Degraded {
			t.Fatalf("%s: expected degraded result", fn)
		}
		if rd.Synthesis.Area < re.Synthesis.Area {
			t.Fatalf("%s: degraded area %d beat exact %d — exact flow regressed",
				fn, rd.Synthesis.Area, re.Synthesis.Area)
		}
	}
}
