// Command xbarload is the load-generation and soak driver for the
// nanoxbar serving stack. It replays a configurable scenario mix —
// cached synthesis lookups, per-chip mapping, streaming yield sweeps,
// and mid-stream cancellations — through the public HTTP client
// (pkg/nanoxbar/client) against either a running xbarserverd or an
// in-process server it starts itself, with function popularity drawn
// from a zipf distribution so the cache sees a realistic hot set.
//
// It emits latency percentiles per scenario plus the server's cache
// hit-rate delta as a JSON report in the internal/benchreport schema,
// so the same tooling that reads BENCH_lattice.json (cmd/benchjson
// -compare) reads soak results. The server's GET /metrics endpoint is
// scraped before and after the soak; the bucket deltas yield
// server-side per-kind and per-stage latency quantiles (the
// Soak/server pseudo-benchmark), measured without client and network
// overhead.
//
// Usage:
//
//	xbarload [-addr http://host:8080] [-duration 30s] [-concurrency 8]
//	         [-seed 1] [-mix synthesize=3,map=5,yield=1,cancel=1]
//	         [-funcs 48] [-zipf-s 1.3] [-chips 12] [-density 0.04]
//	         [-max-attempts 50] [-out -]
//
// -mix also accepts a built-in preset name: "default" (the cache-heavy
// mix above) or "yield-heavy" (mostly streaming yield sweeps — the
// fault-tolerance hot path). Yield sweeps additionally report per-die
// map latency percentiles and mean self-mapping attempts per die in the
// JSON output (the Soak/die pseudo-benchmark).
//
// With no -addr it boots a private in-process server (sized by -workers
// and -cache) on a loopback port, which is what the CI soak smoke uses:
//
//	go run -race ./cmd/xbarload -duration 5s -seed 1 -out soak.json
//
// -chaos turns the soak into a resilience test: the client's transport
// injects seeded faults (dropped connections, 5xx bursts, latency
// spikes, truncated NDJSON frames) and the client runs with retries and
// a circuit breaker enabled. Failures that surface typed — overloaded,
// unavailable, canceled, or a chaos-synthesized 500 — are expected and
// counted (the Soak/chaos pseudo-benchmark); anything untyped, and any
// server panic observed in /metrics, fails the run. Against the
// in-process server the injected-fault and client retry/breaker
// counters are bridged into GET /metrics.
//
// -cluster N (N >= 2) boots an in-process N-node cluster —
// consistent-hash routing, failure detection, peer cache-fill — and
// soaks it through node n0 while the harness kills node n1 abruptly in
// the middle of a streaming yield sweep, then restarts it on the same
// port under load and warm-starts its cache from a peer snapshot.
// Inter-node traffic runs through a seeded chaos transport to model
// partitions. The run fails on any untyped client error (including the
// kill-victim stream's), a failed restart, or a recovered panic in any
// surviving node's /metrics; routing counters and latency quantiles
// are emitted as the Soak/cluster and Soak/cluster/p99
// pseudo-benchmarks:
//
//	go run -race ./cmd/xbarload -cluster 3 -duration 5s -seed 1 -out soak_cluster.json
//
// Exit status 1 when any request fails unexpectedly (cancellations the
// driver itself issued are expected; unsuccessful-but-valid mapping
// outcomes are results, not failures; typed chaos failures under
// -chaos or -cluster likewise).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nanoxbar/internal/benchreport"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
	nbclient "nanoxbar/pkg/nanoxbar/client"
)

// scenario names, in report order.
const (
	scSynthesize = "synthesize"
	scMap        = "map"
	scYield      = "yield"
	scCancel     = "cancel" // yield sweep canceled mid-stream
)

var scenarioOrder = []string{scSynthesize, scMap, scYield, scCancel}

// mixPresets are built-in scenario mixes selectable by passing their
// name as -mix.
var mixPresets = map[string]string{
	// default leans on the synthesis cache and per-chip mapping.
	"default": "synthesize=3,map=5,yield=1,cancel=1",
	// yield-heavy drives the fault-tolerance path: most operations are
	// streaming yield sweeps, each fanning dies across the server's
	// workers.
	"yield-heavy": "synthesize=1,map=2,yield=6,cancel=1",
}

func main() {
	addr := flag.String("addr", "", "server base URL; empty starts an in-process server")
	duration := flag.Duration("duration", 30*time.Second, "soak duration")
	concurrency := flag.Int("concurrency", 8, "concurrent client streams")
	seed := flag.Int64("seed", 1, "root seed for scenario and function draws")
	mixSpec := flag.String("mix", "default", "scenario weights (name=weight,...) or a preset name (default|yield-heavy)")
	funcs := flag.Int("funcs", 48, "distinct functions in the popularity pool")
	zipfS := flag.Float64("zipf-s", 1.3, "zipf exponent for function popularity (<=1 = uniform)")
	chips := flag.Int("chips", 12, "dies per yield sweep")
	density := flag.Float64("density", 0.04, "crosspoint defect density")
	maxAttempts := flag.Int("max-attempts", 50, "self-mapping attempt budget per chip")
	out := flag.String("out", "-", "report path (- for stdout)")
	workers := flag.Int("workers", 0, "in-process server worker pool size (0 = NumCPU)")
	cacheSize := flag.Int("cache", 1024, "in-process server cache entries")
	chaos := flag.Bool("chaos", false, "inject seeded transport faults and assert every failure is typed")
	clusterN := flag.Int("cluster", 0, "boot an N-node in-process cluster (N >= 2) with kill/restart chaos; incompatible with -addr and -chaos")
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarload:", err)
		os.Exit(2)
	}
	if *funcs < 1 {
		fmt.Fprintln(os.Stderr, "xbarload: -funcs must be >= 1")
		os.Exit(2)
	}
	if *concurrency < 1 || *chips < 1 {
		fmt.Fprintln(os.Stderr, "xbarload: -concurrency and -chips must be >= 1")
		os.Exit(2)
	}
	if *clusterN != 0 && *clusterN < 2 {
		fmt.Fprintln(os.Stderr, "xbarload: -cluster needs at least 2 nodes")
		os.Exit(2)
	}
	if *clusterN > 0 && (*addr != "" || *chaos) {
		fmt.Fprintln(os.Stderr, "xbarload: -cluster is incompatible with -addr and -chaos")
		os.Exit(2)
	}

	base := *addr
	var inproc *inprocServer
	var clus *clusterHarness
	if *clusterN > 0 {
		c, err := startClusterHarness(*clusterN, *workers, *cacheSize, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarload:", err)
			os.Exit(1)
		}
		defer c.close()
		clus = c
		base = c.peers["n0"]
		fmt.Fprintf(os.Stderr, "xbarload: %d-node in-process cluster, client at %s\n", *clusterN, base)
	} else if base == "" {
		srv, err := startInProcessServer(*workers, *cacheSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarload:", err)
			os.Exit(1)
		}
		defer srv.close()
		inproc = srv
		base = srv.url
		fmt.Fprintf(os.Stderr, "xbarload: in-process server at %s\n", base)
	}

	// Under -chaos the client speaks through a fault-injecting transport
	// and defends itself with the stock retry/breaker configuration —
	// the point of the soak is that this combination never produces an
	// untyped failure.
	var chaosT *resilience.ChaosTransport
	var clOpts []nbclient.Option
	if *chaos {
		chaosT = resilience.NewChaosTransport(nil, resilience.ChaosConfig{
			Seed:         *seed,
			DropRate:     0.03,
			ErrorRate:    0.05,
			LatencyRate:  0.05,
			LatencyMin:   time.Millisecond,
			LatencyMax:   5 * time.Millisecond,
			TruncateRate: 0.02,
		})
		clOpts = append(clOpts,
			nbclient.WithHTTPClient(&http.Client{Transport: chaosT}),
			// Six attempts outlast the longest 5xx burst (three
			// responses) with room for an adjacent drop, so the control
			// calls bracketing the soak (Stats, /metrics) survive chaos.
			nbclient.WithResilience(nbclient.ResilienceConfig{
				Seed:  *seed,
				Retry: resilience.RetryPolicy{MaxAttempts: 6},
			}))
	}
	cl := nbclient.New(base, clOpts...)
	defer cl.Close()
	if *chaos && inproc != nil {
		bridgeChaosMetrics(inproc.eng.Registry(), chaosT, cl)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := soakConfig{
		baseURL:     base,
		duration:    *duration,
		concurrency: *concurrency,
		seed:        *seed,
		mix:         mix,
		funcs:       *funcs,
		zipfS:       *zipfS,
		chips:       *chips,
		density:     *density,
		maxAttempts: *maxAttempts,
		chaos:       *chaos,
		cluster:     clus != nil,
	}
	// The kill/restart schedule runs beside the soak workers, against
	// the same wall clock, so the kill lands mid-soak and the restart
	// happens under load.
	var chaosWG sync.WaitGroup
	if clus != nil {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			clus.runChaos(ctx, cfg)
		}()
	}
	res, err := soak(ctx, cl, cfg)
	chaosWG.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarload:", err)
		os.Exit(1)
	}

	rep := res.report(*duration)
	if *chaos {
		rep.Benchmarks = append(rep.Benchmarks, chaosBenchmark(chaosT, cl, res))
	}
	if clus != nil {
		rep.Benchmarks = append(rep.Benchmarks, clus.benchmarks(res, *duration)...)
	}
	if rep.Notes["metrics_scrape"] != "" {
		fmt.Fprintln(os.Stderr, "xbarload: warning: /metrics scrape skipped; report carries notes.metrics_scrape and no server-side quantiles")
	}
	if err := benchreport.WriteFile(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "xbarload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "xbarload: %d ops (%d failed, %d typed-chaos, %d cancel-scenario), cache hit rate %.3f\n",
		res.totalOps(), res.failures(), res.chaosTypedTotal(), res.counts[scCancel], res.hitRate)
	if *chaos {
		if panics, ok := serverPanics(res.metricsAfter); !ok {
			fmt.Fprintln(os.Stderr, "xbarload: chaos: could not read the server panic counter from /metrics")
			os.Exit(1)
		} else if panics > 0 {
			fmt.Fprintf(os.Stderr, "xbarload: chaos: server recovered %d panic(s) during the soak\n", int(panics))
			os.Exit(1)
		}
	}
	clusterOK := true
	if clus != nil {
		vctx, vcancel := context.WithTimeout(context.Background(), 10*time.Second)
		clusterOK = clus.verdict(vctx)
		vcancel()
	}
	if res.failures() > 0 || !clusterOK {
		os.Exit(1)
	}
}

// expectedChaosFailure reports whether an op error is an acceptable
// outcome under fault injection: a typed shed/unavailability/
// cancellation, or the internal error decoded from a chaos-synthesized
// 500 (recognizable by its message). Anything else is a real bug — an
// untyped error leaking through the taxonomy.
func expectedChaosFailure(err error) bool {
	if errors.Is(err, nanoxbar.ErrOverloaded) ||
		errors.Is(err, nanoxbar.ErrUnavailable) ||
		errors.Is(err, nanoxbar.ErrCanceled) {
		return true
	}
	return errors.Is(err, nanoxbar.ErrInternal) && strings.Contains(err.Error(), "chaos: injected")
}

// Metric family names the chaos soak bridges into the in-process
// server's registry.
const (
	metricChaosFaults          = "nanoxbar_chaos_faults_total"
	metricClientRetries        = "nanoxbar_client_retries_total"
	metricClientRetryExhausted = "nanoxbar_client_retry_exhausted_total"
	metricClientBreakerOpens   = "nanoxbar_client_breaker_opens_total"
)

// bridgeChaosMetrics exposes the chaos transport's injected-fault
// counters and the client's retry/breaker counters through the
// in-process server's registry, so the soak's /metrics scrapes (and a
// human watching the endpoint) see the failure plumbing working.
func bridgeChaosMetrics(reg *telemetry.Registry, ct *resilience.ChaosTransport, cl *nbclient.Client) {
	faults := map[string]func(resilience.ChaosStats) uint64{
		"drop":     func(s resilience.ChaosStats) uint64 { return s.Drops },
		"error5xx": func(s resilience.ChaosStats) uint64 { return s.Errors5xx },
		"latency":  func(s resilience.ChaosStats) uint64 { return s.Latencies },
		"truncate": func(s resilience.ChaosStats) uint64 { return s.Truncations },
	}
	for fault, get := range faults {
		get := get
		reg.CounterFunc(metricChaosFaults,
			"Faults injected by the xbarload chaos transport.",
			func() float64 { return float64(get(ct.Stats())) }, "fault", fault)
	}
	stats := func() (nbclient.ResilienceStats, bool) { return cl.ResilienceStats() }
	reg.CounterFunc(metricClientRetries,
		"Retries the soak client issued against injected faults.",
		func() float64 {
			st, _ := stats()
			return float64(st.Retry.Retries)
		})
	reg.CounterFunc(metricClientRetryExhausted,
		"Soak client calls that failed after exhausting their retry budget.",
		func() float64 {
			st, _ := stats()
			return float64(st.Retry.Exhausted)
		})
	reg.CounterFunc(metricClientBreakerOpens,
		"Circuit-breaker open transitions across the soak client's endpoints.",
		func() float64 {
			st, _ := stats()
			var n uint64
			for _, b := range st.Breakers {
				n += b.Opens
			}
			return float64(n)
		})
}

// chaosBenchmark shapes the chaos soak's fault and resilience counters
// as a pseudo-benchmark so soak reports diff cleanly across runs.
func chaosBenchmark(ct *resilience.ChaosTransport, cl *nbclient.Client, res *soakResult) benchreport.Benchmark {
	cs := ct.Stats()
	m := map[string]float64{
		"requests":       float64(cs.Requests),
		"drops":          float64(cs.Drops),
		"errors-5xx":     float64(cs.Errors5xx),
		"latency-spikes": float64(cs.Latencies),
		"truncations":    float64(cs.Truncations),
		"typed-failures": float64(res.chaosTypedTotal()),
	}
	if st, ok := cl.ResilienceStats(); ok {
		m["retries"] = float64(st.Retry.Retries)
		m["retry-exhausted"] = float64(st.Retry.Exhausted)
		var opens, rejections uint64
		for _, b := range st.Breakers {
			opens += b.Opens
			rejections += b.Rejections
		}
		m["breaker-opens"] = float64(opens)
		m["breaker-rejections"] = float64(rejections)
	}
	return benchreport.Benchmark{
		Pkg:        "nanoxbar/cmd/xbarload",
		Name:       "Soak/chaos",
		Iterations: 1,
		Metrics:    m,
	}
}

// serverPanics reads the recovered-panic counter from the closing
// /metrics scrape; ok is false when the scrape or series is missing.
func serverPanics(exp *telemetry.Exposition) (float64, bool) {
	if exp == nil {
		return 0, false
	}
	return exp.Value("nanoxbar_http_panics_total", nil)
}

// inprocServer is the self-hosted serving stack for -addr "".
type inprocServer struct {
	eng *engine.Engine
	srv *http.Server
	url string
}

func startInProcessServer(workers, cacheSize int) (*inprocServer, error) {
	eng := engine.New(engine.Config{Workers: workers, CacheSize: cacheSize})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv := &http.Server{Handler: httpapi.New(eng)}
	go srv.Serve(ln)
	return &inprocServer{eng: eng, srv: srv, url: "http://" + ln.Addr().String()}, nil
}

func (s *inprocServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.eng.Close()
}

// maxMixWeight bounds one scenario's -mix weight. The soak expands the
// mix into a deck with one entry per unit of weight, so the bound also
// bounds that deck (and keeps the weight total far from overflow).
const maxMixWeight = 1000

// parseMix reads "name=weight,..." into per-scenario weights; a bare
// preset name expands to its built-in weights first. Each scenario may
// appear once, with a weight in [0, maxMixWeight].
func parseMix(spec string) (map[string]int, error) {
	if preset, ok := mixPresets[spec]; ok {
		spec = preset
	}
	mix := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 || w > maxMixWeight {
			return nil, fmt.Errorf("bad mix weight %q (want 0..%d)", part, maxMixWeight)
		}
		known := false
		for _, s := range scenarioOrder {
			known = known || name == s
		}
		if !known {
			return nil, fmt.Errorf("unknown scenario %q (want %s)", name, strings.Join(scenarioOrder, "|"))
		}
		if _, dup := mix[name]; dup {
			return nil, fmt.Errorf("scenario %q named twice in mix", name)
		}
		mix[name] = w
	}
	total := 0
	for _, w := range mix {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return mix, nil
}

// functionPool builds the popularity-ranked function set: a core of
// named benchmark functions, padded with seeded random 3- and 4-input
// truth tables. Index 0 is the most popular under zipf.
func functionPool(n int, rng *rand.Rand) []nanoxbar.FunctionSpec {
	named := []string{"xnor2", "maj3", "fig4", "xor4", "mux2", "cmp2", "add2_s0", "rd5_s1"}
	pool := make([]nanoxbar.FunctionSpec, 0, n)
	for _, name := range named {
		if len(pool) == n {
			break
		}
		pool = append(pool, nanoxbar.Func(name))
	}
	for len(pool) < n {
		if len(pool)%2 == 0 {
			pool = append(pool, nanoxbar.TT(fmt.Sprintf("3:0x%02x", rng.Intn(0x100))))
		} else {
			pool = append(pool, nanoxbar.TT(fmt.Sprintf("4:0x%04x", rng.Intn(0x10000))))
		}
	}
	return pool
}

type soakConfig struct {
	baseURL     string
	duration    time.Duration
	concurrency int
	seed        int64
	mix         map[string]int
	funcs       int
	zipfS       float64
	chips       int
	density     float64
	maxAttempts int
	chaos       bool
	// cluster marks the N-node soak: typed failures are expected
	// casualties of the kill/restart schedule and inter-node chaos,
	// exactly as under -chaos.
	cluster bool
}

// soakResult aggregates per-scenario latencies and outcome counters.
type soakResult struct {
	mu        sync.Mutex
	latencies map[string][]time.Duration
	counts    map[string]int // completed ops per scenario
	failed    map[string]int // unexpected errors per scenario
	// chaosTyped counts ops that failed typed under -chaos — expected
	// casualties of fault injection, not failures.
	chaosTyped map[string]int

	// Per-die observations from completed yield sweeps: the client-side
	// inter-arrival latency of streamed die events (gaps between
	// consecutive events; one fewer than dies per sweep) and the
	// self-mapping attempts each die reported.
	dieLats     []time.Duration
	dieAttempts int64
	dieEvents   int64

	statsBefore, statsAfter nanoxbar.Stats
	hitRate                 float64

	// Scrapes of the server's /metrics endpoint bracketing the soak;
	// nil when the endpoint is unavailable (older server). The report
	// derives server-side latency quantiles from their bucket deltas.
	metricsBefore, metricsAfter *telemetry.Exposition
}

func (r *soakResult) record(scenario string, d time.Duration, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies[scenario] = append(r.latencies[scenario], d)
	r.counts[scenario]++
	if failed {
		r.failed[scenario]++
	}
}

func (r *soakResult) recordChaosTyped(scenario string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chaosTyped[scenario]++
}

func (r *soakResult) chaosTypedTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.chaosTyped {
		n += c
	}
	return n
}

func (r *soakResult) recordDies(lats []time.Duration, attempts, dies int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dieLats = append(r.dieLats, lats...)
	r.dieAttempts += attempts
	r.dieEvents += dies
}

func (r *soakResult) totalOps() int {
	n := 0
	for _, c := range r.counts {
		n += c
	}
	return n
}

func (r *soakResult) failures() int {
	n := 0
	for _, c := range r.failed {
		n += c
	}
	return n
}

// soak runs the workload until the duration elapses or ctx is canceled.
func soak(ctx context.Context, cl *nbclient.Client, cfg soakConfig) (*soakResult, error) {
	res := &soakResult{
		latencies:  make(map[string][]time.Duration),
		counts:     make(map[string]int),
		failed:     make(map[string]int),
		chaosTyped: make(map[string]int),
	}
	var err error
	if res.statsBefore, err = cl.Stats(ctx); err != nil {
		return nil, fmt.Errorf("server not reachable: %w", err)
	}
	res.metricsBefore = scrapeMetrics(ctx, cfg.baseURL)

	pool := functionPool(cfg.funcs, rand.New(rand.NewSource(cfg.seed)))
	// Scenario schedule: expand the weighted mix into a deck each worker
	// walks at a seeded random offset.
	var deck []string
	for _, s := range scenarioOrder {
		for i := 0; i < cfg.mix[s]; i++ {
			deck = append(deck, s)
		}
	}

	deadline, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// splitmix64-style increment keeps worker streams decorrelated.
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*-0x61c8864680b583eb))
			var zipf *rand.Zipf
			if cfg.zipfS > 1 {
				zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(pool)-1))
			}
			for op := 0; ; op++ {
				if deadline.Err() != nil {
					return
				}
				fi := 0
				if zipf != nil {
					fi = int(zipf.Uint64())
				} else {
					fi = rng.Intn(len(pool))
				}
				scenario := deck[rng.Intn(len(deck))]
				start := time.Now()
				opErr := runOp(deadline, cl, cfg, scenario, pool[fi], rng.Int63(), res)
				elapsed := time.Since(start)
				if deadline.Err() != nil && errors.Is(opErr, nanoxbar.ErrCanceled) {
					// The soak window closed mid-call; not a data point.
					return
				}
				failed := opErr != nil
				if failed && (cfg.chaos || cfg.cluster) && expectedChaosFailure(opErr) {
					// An injected fault surfaced typed — the contract the
					// chaos soak exists to check. Counted, not failed.
					failed = false
					res.recordChaosTyped(scenario)
				}
				res.record(scenario, elapsed, failed)
				if failed {
					fmt.Fprintf(os.Stderr, "xbarload: worker %d op %d (%s): %v\n", w, op, scenario, opErr)
				}
			}
		}(w)
	}
	wg.Wait()

	// The soak context is spent; read closing stats on a fresh one.
	statsCtx, cancelStats := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelStats()
	if res.statsAfter, err = cl.Stats(statsCtx); err != nil {
		return nil, fmt.Errorf("closing stats: %w", err)
	}
	res.metricsAfter = scrapeMetrics(statsCtx, cfg.baseURL)
	dh := res.statsAfter.CacheHits - res.statsBefore.CacheHits
	dm := res.statsAfter.CacheMisses - res.statsBefore.CacheMisses
	if dh+dm > 0 {
		res.hitRate = float64(dh) / float64(dh+dm)
	}
	return res, nil
}

// scrapeMetrics fetches and parses the server's /metrics exposition.
// Any failure (endpoint missing on an older server, parse error) is
// reported on stderr and degrades the report to client-side numbers
// only — a soak must not fail for lack of server telemetry.
func scrapeMetrics(ctx context.Context, base string) *telemetry.Exposition {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarload: metrics scrape:", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "xbarload: metrics scrape: status %d (server-side quantiles omitted)\n", resp.StatusCode)
		return nil
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarload: metrics scrape:", err)
		return nil
	}
	return exp
}

// runOp executes one scenario call, reporting per-die observations of
// yield sweeps into res. The returned error is nil for expected
// outcomes, including the cancel scenario's own cancellation.
func runOp(ctx context.Context, cl *nbclient.Client, cfg soakConfig, scenario string, f nanoxbar.FunctionSpec, seed int64, res *soakResult) error {
	switch scenario {
	case scSynthesize:
		_, err := cl.Synthesize(ctx, f)
		return err
	case scMap:
		out, err := cl.Map(ctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(cfg.density),
			nanoxbar.WithMaxAttempts(cfg.maxAttempts))
		if err != nil {
			return err
		}
		_ = out.Success // an unrecoverable die is a result, not a failure
		return nil
	case scYield:
		// Dies stream in completion order; the gap between consecutive
		// die events is the per-die map latency as the client observes
		// it. The first event is excluded — its gap would measure
		// request setup and any synthesis-cache miss, not a die.
		var last time.Time
		lats := make([]time.Duration, 0, cfg.chips)
		var attempts, dies int64
		_, err := cl.YieldSweep(ctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(cfg.density),
			nanoxbar.WithChips(cfg.chips),
			nanoxbar.WithMaxAttempts(cfg.maxAttempts),
			nanoxbar.OnDie(func(d nanoxbar.Die) {
				now := time.Now()
				if !last.IsZero() {
					lats = append(lats, now.Sub(last))
				}
				last = now
				dies++
				if d.Map != nil {
					attempts += int64(d.Map.Configs)
				}
			}))
		if err == nil {
			res.recordDies(lats, attempts, dies)
		}
		return err
	case scCancel:
		// Stream a sweep and hang up partway through: the concurrent-
		// streams-with-cancel path the v2 protocol must survive.
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopAfter := cfg.chips / 2
		if stopAfter < 1 {
			stopAfter = 1
		}
		seen := 0
		_, err := cl.YieldSweep(cctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(cfg.density),
			nanoxbar.WithChips(2*cfg.chips),
			nanoxbar.WithMaxAttempts(cfg.maxAttempts),
			nanoxbar.OnDie(func(nanoxbar.Die) {
				if seen++; seen >= stopAfter {
					cancel()
				}
			}))
		if err == nil || errors.Is(err, nanoxbar.ErrCanceled) {
			return nil // finished fast or canceled as intended
		}
		return err
	}
	return fmt.Errorf("unknown scenario %q", scenario)
}

// percentile returns the p-th percentile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// report shapes the soak outcome as a benchreport document: one
// benchmark per scenario (mean ns/op, percentile metrics), plus a
// pseudo-benchmark carrying the cache hit-rate delta.
func (r *soakResult) report(duration time.Duration) benchreport.Report {
	rep := benchreport.Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Benchtime:   duration.String(),
	}
	for _, s := range scenarioOrder {
		lats := r.latencies[s]
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		rep.Benchmarks = append(rep.Benchmarks, benchreport.Benchmark{
			Pkg:        "nanoxbar/cmd/xbarload",
			Name:       "Soak/" + s,
			Iterations: int64(len(lats)),
			NsPerOp:    float64(sum.Nanoseconds()) / float64(len(lats)),
			Metrics: map[string]float64{
				"p50-ns":  float64(percentile(lats, 0.50).Nanoseconds()),
				"p90-ns":  float64(percentile(lats, 0.90).Nanoseconds()),
				"p99-ns":  float64(percentile(lats, 0.99).Nanoseconds()),
				"max-ns":  float64(lats[len(lats)-1].Nanoseconds()),
				"errors":  float64(r.failed[s]),
				"ops/sec": float64(len(lats)) / duration.Seconds(),
			},
		})
	}
	if len(r.dieLats) > 0 {
		lats := r.dieLats
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		rep.Benchmarks = append(rep.Benchmarks, benchreport.Benchmark{
			Pkg:        "nanoxbar/cmd/xbarload",
			Name:       "Soak/die",
			Iterations: int64(len(lats)),
			NsPerOp:    float64(sum.Nanoseconds()) / float64(len(lats)),
			Metrics: map[string]float64{
				"p50-ns":           float64(percentile(lats, 0.50).Nanoseconds()),
				"p99-ns":           float64(percentile(lats, 0.99).Nanoseconds()),
				"attempts-per-die": float64(r.dieAttempts) / float64(r.dieEvents),
				"dies":             float64(r.dieEvents),
				"dies/sec":         float64(r.dieEvents) / duration.Seconds(),
			},
		})
	}
	if r.metricsBefore == nil || r.metricsAfter == nil {
		// The missing Soak/server block must read as "no data", not
		// "zero delta" — downstream tooling keys on this note.
		rep.Notes = map[string]string{"metrics_scrape": "skipped"}
	}
	if sm := r.serverMetrics(); len(sm) > 0 {
		rep.Benchmarks = append(rep.Benchmarks, benchreport.Benchmark{
			Pkg:        "nanoxbar/cmd/xbarload",
			Name:       "Soak/server",
			Iterations: 1,
			Metrics:    sm,
		})
	}
	rep.Benchmarks = append(rep.Benchmarks, benchreport.Benchmark{
		Pkg:        "nanoxbar/cmd/xbarload",
		Name:       "Soak/cache",
		Iterations: 1,
		Metrics: map[string]float64{
			"hit-rate":    r.hitRate,
			"hits":        float64(r.statsAfter.CacheHits - r.statsBefore.CacheHits),
			"misses":      float64(r.statsAfter.CacheMisses - r.statsBefore.CacheMisses),
			"entries":     float64(r.statsAfter.CacheEntries),
			"loaded":      float64(r.statsAfter.CacheLoaded),
			"synth-calls": float64(r.statsAfter.SynthCalls - r.statsBefore.SynthCalls),
		},
	})
	return rep
}

// serverMetrics derives server-side latency quantiles from the
// /metrics scrapes bracketing the soak: per-kind request duration and
// pipeline stage histograms, subtracted bucket-wise so only the soak's
// own observations contribute. Empty when scraping was unavailable.
func (r *soakResult) serverMetrics() map[string]float64 {
	if r.metricsBefore == nil || r.metricsAfter == nil {
		return nil
	}
	m := make(map[string]float64)
	delta := func(name string, labels map[string]string) *telemetry.HistogramSnapshot {
		after, ok := r.metricsAfter.Histogram(name, labels)
		if !ok {
			return nil
		}
		before, _ := r.metricsBefore.Histogram(name, labels)
		d, ok := after.Sub(before)
		if !ok || d.Count == 0 {
			return nil
		}
		return d
	}
	quantiles := func(prefix string, d *telemetry.HistogramSnapshot) {
		m[prefix+"-p50-ns"] = d.Quantile(0.50) * 1e9
		m[prefix+"-p99-ns"] = d.Quantile(0.99) * 1e9
		m[prefix+"-count"] = float64(d.Count)
	}
	for _, kind := range []string{"synthesize", "map", "yield"} {
		if d := delta("nanoxbar_request_duration_seconds", map[string]string{"kind": kind}); d != nil {
			quantiles(kind, d)
		}
	}
	for _, stage := range []string{"queue_wait", "cache_lookup", "die_map"} {
		if d := delta("nanoxbar_stage_duration_seconds", map[string]string{"stage": stage}); d != nil {
			quantiles(strings.ReplaceAll(stage, "_", "-"), d)
		}
	}
	return m
}
