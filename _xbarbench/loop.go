package main

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nanoxbar/pkg/nanoxbar"
)

// dieTally summarizes the dies a streamed sweep delivered.
type dieTally struct {
	n, successes int
	indexSum     int64
}

func (t *dieTally) add(d nanoxbar.Die) {
	t.n++
	t.indexSum += int64(d.Index)
	if d.Map != nil && d.Map.Success {
		t.successes++
	}
}

// outcome is what one request returned.
type outcome struct {
	err    error
	synth  *nanoxbar.Synthesis
	mapped *nanoxbar.MapOutcome
	yield  *nanoxbar.YieldStats
	tally  dieTally
	dies   []nanoxbar.Die // streamed dies, kept for sampled requests only
}

// call issues op o through api — the HTTP SDK in the timed window, the
// in-process client when the oracle answers it. logDies keeps every
// streamed die for the output check.
func call(ctx context.Context, api nanoxbar.API, o op, logDies bool) outcome {
	var out outcome
	switch o.kind {
	case nanoxbar.KindSynthesize:
		out.synth, out.err = api.Synthesize(ctx, o.fn, o.options()...)
	case nanoxbar.KindMap:
		out.mapped, out.err = api.Map(ctx, o.fn, o.options()...)
	case nanoxbar.KindYield:
		opts := o.options()
		if o.stream {
			opts = append(opts, nanoxbar.OnDie(func(d nanoxbar.Die) {
				out.tally.add(d)
				if logDies {
					out.dies = append(out.dies, d)
				}
			}))
		}
		out.yield, out.err = api.YieldSweep(ctx, o.fn, opts...)
	}
	return out
}

// requestID is the X-Request-ID of request i; the spans of one request
// are joined on it.
func requestID(i int64) string { return "xb-" + strconv.FormatInt(i, 10) }

// sdkCaller issues ops through the HTTP SDK with their request IDs,
// recording the client span while the recorder is on.
func sdkCaller(api nanoxbar.API, rec *recorder) func(context.Context, op, bool) outcome {
	return func(ctx context.Context, o op, logDies bool) outcome {
		id := requestID(o.index)
		ctx = nanoxbar.ContextWithRequestID(ctx, id)
		if rec == nil || !rec.on.Load() {
			return call(ctx, api, o, logDies)
		}
		start := rec.now()
		out := call(ctx, api, o, logDies)
		rec.add(span{ID: id, Layer: layerClient, Start: start, End: rec.now()})
		return out
	}
}

// record is one completed request kept for the output checks.
type record struct {
	op      op
	sampled bool
	out     outcome
}

// loopConfig describes one closed-loop window.
type loopConfig struct {
	clients  int
	duration time.Duration
	first    int64 // index of the first request
	next     func(i int64) op
	sampled  func(i int64) bool
	keepAll  bool
	do       func(ctx context.Context, o op, logDies bool) outcome
	// area returns the implementation area a request used (false when
	// it failed).
	area func(o op, out outcome) (float64, bool)
}

// loopResult is what a window measured.
type loopResult struct {
	attempted int
	failed    int
	firstErr  error
	latencies []time.Duration
	kept      []record
	elapsed   time.Duration // first request sent to last reply received
	areaSum   float64
	areaN     int
	nextIndex int64
}

// runLoop drives a closed loop: each client sends its next request only
// when the previous reply is complete, and stops sending once the
// window's duration has passed. The window ends when the last reply
// arrives, so rates divide by the measured elapsed time.
func runLoop(ctx context.Context, cfg loopConfig) loopResult {
	var next atomic.Int64
	next.Store(cfg.first)
	parts := make([]loopResult, cfg.clients)
	ends := make([]time.Time, cfg.clients)
	begin := time.Now()
	deadline := begin.Add(cfg.duration)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *loopResult, end *time.Time) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				o := cfg.next(i)
				sampled := cfg.sampled(i)
				t := time.Now()
				out := cfg.do(ctx, o, sampled)
				p.latencies = append(p.latencies, time.Since(t))
				p.attempted++
				if out.err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = out.err
					}
				} else if a, ok := cfg.area(o, out); ok {
					p.areaSum += a
					p.areaN++
				}
				if cfg.keepAll || sampled {
					p.kept = append(p.kept, record{op: o, sampled: sampled, out: out})
				}
			}
			*end = time.Now()
		}(&parts[c], &ends[c])
	}
	wg.Wait()

	var res loopResult
	for c, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		res.latencies = append(res.latencies, p.latencies...)
		res.kept = append(res.kept, p.kept...)
		res.areaSum += p.areaSum
		res.areaN += p.areaN
		if e := ends[c].Sub(begin); e > res.elapsed {
			res.elapsed = e
		}
	}
	sort.Slice(res.kept, func(i, j int) bool { return res.kept[i].op.index < res.kept[j].op.index })
	res.nextIndex = next.Load()
	return res
}

// merge combines two windows' results (their elapsed times add up).
func (r loopResult) merge(o loopResult) loopResult {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.latencies = append(r.latencies, o.latencies...)
	r.kept = append(r.kept, o.kept...)
	r.elapsed += o.elapsed
	r.areaSum += o.areaSum
	r.areaN += o.areaN
	r.nextIndex = o.nextIndex
	return r
}

// rate is ops per second over a measured elapsed window.
func rate(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// quantile is one latency percentile with the samples behind it.
type quantile struct {
	q      float64
	ms     float64
	n      int // samples in the distribution
	beyond int // samples above the reported value
}

// percentile is the nearest-rank q-quantile of the latencies.
func percentile(lats []time.Duration, q float64) quantile {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	res := quantile{q: q, n: len(s)}
	if len(s) == 0 {
		return res
	}
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	res.ms = float64(s[k]) / 1e6
	res.beyond = len(s) - 1 - k
	return res
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
