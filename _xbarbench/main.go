// Command xbarbench is the repository benchmark. It boots the serving
// stack in process on a loopback listener — engine.New with its
// defaults and httpapi.New with an info-level access logger writing to
// a discard sink, as cmd/xbarserverd wires them — and drives it through
// the public SDK client (pkg/nanoxbar/client) as a closed loop of one
// client per CPU. It checks the served results against the in-process
// nanoxbar.Client and prints every metric with its unit and direction,
// ending with one JSON result line.
//
//	xbarbench -workload serve_hot -seed 1 -seconds 20 -trace 0
//	xbarbench -workload synth_cold -seed 1 -seconds 20 -trace 1
//	xbarbench -summarize .bench_build/xbarbench/trace-synth_cold-seed1.ndjson
//
// With -trace 0 the end-to-end metrics are measured, tracing off. With
// -trace 1 the window is split: an untraced half gives the counter and
// runtime metrics and the untraced throughput, a traced half records
// client, transport and handler spans, which are written to a span file
// and summarized into the per-layer table. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nanoxbar/internal/core"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/yield"
	"nanoxbar/pkg/nanoxbar"
)

// setupRounds is how many times a measured run boots and warms the
// stack; setup_s is the median, and the last stack serves the window.
const setupRounds = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("xbarbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve_hot, synth_cold, yield_bulk or yield_stream")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	summ := fs.String("summarize", "", "print the per-layer table of a span file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summ != "" {
		h, spans, err := readTrace(*summ)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarbench:", err)
			return 1
		}
		m, s := summarize(h, spans)
		printLayers(stdout, h.Workload, m, s)
		return 0
	}
	wl, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		return 2
	}
	b := &bench{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		clients: runtime.NumCPU(), out: stdout}
	var res resultLine
	if *trace == 1 {
		res, err = b.traced(context.Background())
	} else {
		res, err = b.measured(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	wl      *workload
	seed    int64
	dur     time.Duration
	clients int
	out     io.Writer
}

// warmed is a booted and warmed stack.
type warmed struct {
	st *stack
	// areas maps each named function to the area of its served
	// implementation (map and yield requests place it).
	areas map[string]float64
	recs  []record
}

// setUp boots the stack and sends the workload's set-up requests.
// setup_s times exactly this.
func (b *bench) setUp(ctx context.Context, rec *recorder) (*warmed, error) {
	st, err := boot(b.clients, rec)
	if err != nil {
		return nil, err
	}
	w := &warmed{st: st, areas: make(map[string]float64)}
	for _, o := range b.wl.warm(b.seed) {
		out := call(ctx, st.cl, o, false)
		if out.err != nil {
			return nil, errors.Join(fmt.Errorf("set-up %s %+v: %w", o.kind, o.fn, out.err), st.close())
		}
		if out.synth != nil && o.fn.Name != "" {
			w.areas[o.fn.Name] = float64(out.synth.Area)
		}
		w.recs = append(w.recs, record{op: o, out: out})
	}
	return w, nil
}

// loop describes a window over w starting at request first.
func (b *bench) loop(w *warmed, rec *recorder, first int64, d time.Duration) loopConfig {
	return loopConfig{
		clients:  b.clients,
		duration: d,
		first:    first,
		next:     func(i int64) op { return b.wl.next(b.seed, i) },
		sampled:  func(i int64) bool { return b.wl.sampled(b.seed, i) },
		keepAll:  b.wl.keepAll,
		do:       sdkCaller(w.st.cl, rec),
		area: func(o op, out outcome) (float64, bool) {
			if out.synth != nil {
				return float64(out.synth.Area), true
			}
			a, ok := w.areas[o.fn.Name]
			return a, ok
		},
	}
}

// measured is the untraced run: the end-to-end metrics.
func (b *bench) measured(ctx context.Context) (resultLine, error) {
	setups := make([]float64, setupRounds)
	var w *warmed
	for r := range setups {
		if w != nil {
			if err := w.st.close(); err != nil {
				return resultLine{}, err
			}
		}
		t := time.Now()
		var err error
		if w, err = b.setUp(ctx, nil); err != nil {
			return resultLine{}, err
		}
		setups[r] = time.Since(t).Seconds()
	}
	defer w.st.close()

	stop, rssc := make(chan struct{}), make(chan float64, 1)
	go func() { rssc <- sampleMemory(stop) }()
	lr := runLoop(ctx, b.loop(w, nil, 0, b.dur))
	close(stop)
	rss := <-rssc
	chk, err := b.check(ctx, w, lr.kept)
	if err != nil {
		return resultLine{}, err
	}

	p50, p90, p99 := percentile(lr.latencies, 0.5), percentile(lr.latencies, 0.9), percentile(lr.latencies, 0.99)
	m := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": rate(lr.attempted, lr.elapsed),
		"latency_p50_ms":   p50.ms,
		"latency_p90_ms":   p90.ms,
		"peak_rss_mb":      rss,
	}
	if lr.areaN > 0 {
		m["area_mean"] = lr.areaSum / float64(lr.areaN)
	}
	failed := lr.failed + chk.mismatches
	fmt.Fprintf(b.out, "xbarbench %s seed=%d: closed loop of %d clients, %d requests in %.3fs\n",
		b.wl.name, b.seed, b.clients, lr.attempted, lr.elapsed.Seconds())
	for _, d := range endToEndMetrics {
		fmt.Fprintf(b.out, "  %-18s %14.6g %-12s %s is better\n", d.name, m[d.name], d.unit, d.better)
	}
	fmt.Fprintf(b.out, "  setup rounds (s): %.4f\n", setups)
	fmt.Fprintf(b.out, "  process peak RSS over the whole run (getrusage): %.1f MB\n", peakRSSMB())
	for _, q := range []quantile{p50, p90, p99} {
		fmt.Fprintf(b.out, "  latency p%g: %.4f ms over %d samples, %d beyond\n", q.q*100, q.ms, q.n, q.beyond)
	}
	fmt.Fprintf(b.out, "  error_rate: %.6g (%d failed or mismatched of %d attempted), lower is better\n",
		float64(failed)/float64(max(lr.attempted, 1)), failed, lr.attempted)
	chk.print(b.out, lr.firstErr)

	return b.result(chk, lr.attempted, failed, endToEndMetrics, m), nil
}

// traceDir receives the span files, inside the checkout's build
// directory.
const traceDir = ".bench_build/xbarbench"

// tracePhases is how many alternating untraced and traced windows a
// traced run measures. Alternating keeps a drift in the machine's speed
// from reading as tracing overhead.
const tracePhases = 4

// traced is the traced run: the per-layer metrics.
func (b *bench) traced(ctx context.Context) (resultLine, error) {
	rec := newRecorder()
	w, err := b.setUp(ctx, rec)
	if err != nil {
		return resultLine{}, err
	}
	defer w.st.close()

	var plain, traced loopResult
	var plainW, tracedW counters
	prev, err := takeSnapshot(w.st.eng)
	if err != nil {
		return resultLine{}, err
	}
	next := int64(0)
	for phase := 0; phase < tracePhases; phase++ {
		on := phase%2 == 1
		rec.on.Store(on)
		lr := runLoop(ctx, b.loop(w, rec, next, b.dur/tracePhases))
		rec.on.Store(false)
		cur, err := takeSnapshot(w.st.eng)
		if err != nil {
			return resultLine{}, err
		}
		d := cur.sub(prev)
		prev, next = cur, lr.nextIndex
		if on {
			traced, tracedW = traced.merge(lr), tracedW.add(d)
		} else {
			plain, plainW = plain.merge(lr), plainW.add(d)
		}
	}
	spans := rec.take()

	layers := plainW.layers(plain.attempted)
	untraced, tracedRate := rate(plain.attempted, plain.elapsed), rate(traced.attempted, traced.elapsed)
	layers["net.conns_per_op"] = ratio(float64(rec.conns.Load()), float64(traced.attempted))
	layers["trace.untraced_ops_s"] = untraced
	layers["trace.traced_ops_s"] = tracedRate
	layers["trace.overhead_ratio"] = ratio(untraced, tracedRate)
	kept := append(append([]record(nil), plain.kept...), traced.kept...)
	replayed, err := b.replay(w, kept, b.dur/10)
	if err != nil {
		return resultLine{}, err
	}
	for k, v := range replayed {
		layers[k] = v
	}

	h := traceHeader{Workload: b.wl.name, Seed: b.seed, Ops: traced.attempted,
		EngineUs: tracedW.engineUs(), Layers: layers}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return resultLine{}, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.ndjson", b.wl.name, b.seed))
	if err := writeTrace(path, h, spans); err != nil {
		return resultLine{}, fmt.Errorf("write span file: %w", err)
	}
	// The table is computed from the file as written, so rerunning the
	// summarizer on it reproduces the numbers.
	h, spans, err = readTrace(path)
	if err != nil {
		return resultLine{}, err
	}
	m, sum := summarize(h, spans)

	chk, err := b.check(ctx, w, kept)
	if err != nil {
		return resultLine{}, err
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed + chk.mismatches
	fmt.Fprintf(b.out, "xbarbench %s seed=%d traced: %d untraced then %d traced requests, spans in %s\n",
		b.wl.name, b.seed, plain.attempted, traced.attempted, path)
	printLayers(b.out, b.wl.name, m, sum)
	fmt.Fprintf(b.out, "  error_rate: %.6g (%d failed or mismatched of %d attempted)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	firstErr := plain.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	chk.print(b.out, firstErr)
	return b.result(chk, attempted, failed, layerMetrics, m), nil
}

// result assembles the result line over the listed metrics; a metric
// that does not apply to the workload reads 0.
func (b *bench) result(chk *checker, attempted, failed int, defs []metricDef, m map[string]float64) resultLine {
	res := resultLine{
		Correct:   failed == 0 && chk.compared > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := 0.0
		if d.appliesTo(b.wl.name) {
			v = m[d.name]
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// check runs the output checks over the set-up requests and the kept
// window requests.
func (b *bench) check(ctx context.Context, w *warmed, kept []record) (*checker, error) {
	oracle := nanoxbar.NewClient(nanoxbar.ClientConfig{})
	defer oracle.Close()
	c := newChecker(oracle, w.st.eng, b.wl.sampleCap)
	for _, r := range w.recs {
		c.check(ctx, r)
	}
	for _, r := range kept {
		c.check(ctx, r)
	}
	return c, ctx.Err()
}

func (c *checker) print(out io.Writer, firstErr error) {
	fmt.Fprintf(out, "  checks: %d sampled results equal to the in-process oracle's, %d served implementations verified, %d mismatches\n",
		c.compared, len(c.verifiedKeys), c.mismatches)
	if c.compared == 0 {
		fmt.Fprintln(out, "  FAIL: no request fell in the oracle sample")
	}
	for _, p := range c.problems {
		fmt.Fprintln(out, "  FAIL:", p)
	}
	if firstErr != nil {
		fmt.Fprintln(out, "  FAIL: first request error:", firstErr)
	}
}

// replay times the sub-stages the spans cannot reach on the workload's
// own functions and sweeps.
func (b *bench) replay(w *warmed, kept []record, budget time.Duration) (map[string]float64, error) {
	var fns []truthtab.TT
	var sweeps []op
	seen := make(map[string]bool)
	addFn := func(fs nanoxbar.FunctionSpec) error {
		key := fs.Name + fs.TT
		if seen[key] {
			return nil
		}
		seen[key] = true
		f, err := fs.Resolve()
		if err != nil {
			return err
		}
		fns = append(fns, f)
		return nil
	}
	for _, r := range kept {
		if r.out.err != nil {
			continue
		}
		if r.op.kind == nanoxbar.KindYield {
			sweeps = append(sweeps, r.op)
		}
		if b.wl.name == cold {
			if err := addFn(r.op.fn); err != nil {
				return nil, err
			}
		}
	}
	if b.wl.name != cold {
		for _, r := range w.recs {
			if err := addFn(r.op.fn); err != nil {
				return nil, err
			}
		}
	}
	m := replaySynth(fns, budget)
	if len(sweeps) == 0 {
		return m, nil
	}
	apps := make(map[string]*core.Implementation)
	specs := make([]yield.Spec, 0, len(sweeps))
	for _, o := range sweeps {
		imp := apps[o.fn.Name]
		if imp == nil {
			f, err := o.fn.Resolve()
			if err != nil {
				return nil, err
			}
			if imp, err = core.Synthesize(f, core.FourTerminal, core.DefaultOptions()); err != nil {
				return nil, err
			}
			apps[o.fn.Name] = imp
		}
		specs = append(specs, yieldSpec(o, imp.App()))
	}
	for k, v := range replayYield(specs, budget) {
		m[k] = v
	}
	return m, nil
}

// printLayers prints the per-layer table of a traced run.
func printLayers(out io.Writer, workload string, m map[string]float64, s spanSummary) {
	fmt.Fprintf(out, "  per-layer metrics (%d requests with client, transport and handler spans; %d incomplete)\n",
		s.complete, s.incomplete)
	for _, d := range layerMetrics {
		if !d.appliesTo(workload) {
			fmt.Fprintf(out, "  %-30s %14s %-6s %s is better\n", d.name, "n/a", d.unit, d.better)
			continue
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s %s is better\n", d.name, m[d.name], d.unit, d.better)
	}
	fmt.Fprintf(out, "  handler span %.2f us/request\n", s.handler)
	if workload == cold {
		share := m["synth.explained_ratio"]
		fmt.Fprintf(out, "  replayed sub-stages (dual + pcircuit + dreduce) explain %.1f%% of synth.synthesize_us", share*100)
		if share < 0.9 {
			fmt.Fprintf(out, "; the ladder wants 90%%, gap %.1f points", (0.9-share)*100)
		}
		fmt.Fprintln(out)
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
