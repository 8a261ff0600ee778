package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
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
