// Package engine turns the nanoxbar library into a concurrent serving
// backend. The DATE'17 flow splits naturally into a shared, defect-free
// synthesis step (identical across every die that implements a
// function) and a per-chip mapping step (each fabricated crossbar has a
// unique defect map). The engine exploits that split: synthesis results
// live in a canonicalizing LRU cache keyed by core.CacheKey, so one
// core.Synthesize call serves millions of per-chip requests, while a
// bounded worker pool fans the per-chip bism mapping jobs out across
// goroutines with per-job seeded RNGs for reproducibility.
package engine

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/resilience"
	"nanoxbar/internal/telemetry"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xrand"
	"nanoxbar/internal/yield"
)

// Config sizes the engine.
type Config struct {
	// Workers is the size of the worker pool (default runtime.NumCPU()).
	Workers int
	// CacheSize bounds the synthesis LRU entry count (default 1024).
	CacheSize int
	// Logger receives per-request debug logs (kind, duration, outcome,
	// request ID when the context carries one). Nil discards.
	Logger *slog.Logger

	// QueueDepth bounds the job queue (default 4×Workers). Submissions
	// beyond Workers running + QueueDepth queued wait for space.
	QueueDepth int
	// MaxQueueWait is the admission-control budget: a submission that
	// cannot get queue space within it is shed with an
	// apierr.ErrOverloaded result instead of blocking. 0 preserves the
	// pre-admission-control behavior of blocking indefinitely.
	MaxQueueWait time.Duration
}

// defaultMaxAttempts bounds self-mapping effort when a request does not
// say otherwise; it matches the budget the paper's E7 sweep uses for
// mid-size chips.
const defaultMaxAttempts = 200

// defaultYieldChips is the die count of a KindYield request that leaves
// Chips unset.
const defaultYieldChips = 100

// Request bounds. These fields drive allocations proportional to their
// value, so untrusted requests must not pick them freely: a yield sweep
// allocates per-die state, a random chip draw allocates ChipSize².
const (
	maxChips       = 100_000
	maxChipSize    = 4096
	maxMaxAttempts = 1_000_000
)

// Engine executes Requests over a shared synthesis cache and a bounded
// worker pool. It is safe for concurrent use; Close releases the
// workers (no Do/Submit may follow Close).
type Engine struct {
	cache        *cache
	pool         *pool
	workers      int
	maxQueueWait time.Duration
	met          *engineMetrics
	logger       *slog.Logger

	requests   atomic.Uint64
	failures   atomic.Uint64
	synthCalls atomic.Uint64
	byKind     [4]atomic.Uint64 // synthesize, compare, map, yield

	// shed counts requests refused at the queue (typed
	// apierr.ErrOverloaded, never run).
	shed atomic.Uint64

	// Fault-path counters: dies placed through the self-mapper, random
	// defect maps drawn, and total self-mapping configurations spent —
	// mean attempts per die is mapAttempts/diesMapped. diesFast counts
	// yield-sweep dies resolved by the lane fast path's candidate
	// schedule; diesDemoted counts the ones that fell back to the scalar
	// mapper.
	diesMapped  atomic.Uint64
	defectMaps  atomic.Uint64
	mapAttempts atomic.Uint64
	diesFast    atomic.Uint64
	diesDemoted atomic.Uint64

	// peerFill, when set, is consulted on a cache miss before local
	// synthesis — the cluster tier's chance to fetch the owner's cached
	// implementation instead of recomputing it.
	peerFill atomic.Pointer[PeerFillFunc]
}

// PeerFillFunc resolves a cache key against a remote source. It
// returns nil on any miss or failure; it must never block past its own
// internal timeout, because it runs inside the cache flight and every
// waiter for the key is behind it.
type PeerFillFunc func(ctx context.Context, key string) *core.Implementation

// SetPeerFill installs (or, with nil, removes) the cache-miss peer
// fill hook. Safe to call at any time; typically wired once at daemon
// startup before traffic.
func (e *Engine) SetPeerFill(fn PeerFillFunc) {
	if fn == nil {
		e.peerFill.Store(nil)
		return
	}
	e.peerFill.Store(&fn)
}

// PeekCached returns the completed cached implementation for key, if
// any, without computing, blocking, or perturbing the hit/miss
// statistics. It backs the cluster peer-fill route. The returned
// Implementation is shared and must be treated as read-only.
func (e *Engine) PeekCached(key string) (*core.Implementation, bool) {
	return e.cache.peek(key)
}

// KeyFor resolves a request's function/technology/options and returns
// its canonical cache key. This is the routing key the cluster tier
// hashes; it errors exactly when serving the request would produce a
// typed bad-spec result.
func (e *Engine) KeyFor(req Request) (string, error) {
	f, tech, opts, err := e.resolve(req)
	if err != nil {
		return "", err
	}
	return core.CacheKey(f, tech, opts), nil
}

// New starts an engine.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	e := &Engine{
		cache:        newCache(cfg.CacheSize),
		pool:         newPool(cfg.Workers, cfg.QueueDepth),
		workers:      cfg.Workers,
		maxQueueWait: cfg.MaxQueueWait,
		logger:       cfg.Logger,
	}
	e.met = newEngineMetrics(e)
	return e
}

// Registry exposes the engine's telemetry registry — request/stage
// latency histograms, cache and fault-path counters, and Go runtime
// stats — for the daemon's /metrics endpoint. The HTTP layer registers
// its own families on the same registry.
func (e *Engine) Registry() *telemetry.Registry { return e.met.reg }

// Close stops the worker pool after draining queued jobs.
func (e *Engine) Close() { e.pool.close() }

// synthKeyed implements f on tech through the cache. The returned
// Implementation is shared: callers must treat it as read-only. It also
// returns the cache key, a SHA-256 over the full truth table — computed
// once here and reused by callers that report it — and whether the
// lookup was a cache hit. The context is checked on entry; the
// synthesis itself runs detached from it, because a cache flight is
// shared work — a canceled leader must not poison the result for
// concurrent followers of the same key.
func (e *Engine) synthKeyed(ctx context.Context, f truthtab.TT, tech core.Technology, opts core.Options) (*core.Implementation, string, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", false, apierr.Canceled(err)
	}
	key := core.CacheKey(f, tech, opts)
	lookup := time.Now()
	imp, err, hit := e.cache.getOrCompute(key, func() (*core.Implementation, error) {
		// Cluster peer fill: a cold slot may be warm in the key owner's
		// cache. Runs detached from the caller's context for the same
		// reason the synthesis does — the flight's result is shared. A
		// peer's answer is checked against f before it enters the cache;
		// a wrong one is counted and synthesized locally instead.
		if fill := e.peerFill.Load(); fill != nil {
			if imp := (*fill)(context.WithoutCancel(ctx), key); imp != nil {
				if imp.Tech == tech && imp.Verify(f) {
					return imp, nil
				}
				e.met.peerRejected.Inc()
			}
		}
		e.synthCalls.Add(1)
		start := time.Now()
		imp, err := core.SynthesizeCtx(context.WithoutCancel(ctx), f, tech, opts)
		e.met.synthesize.Observe(time.Since(start))
		return imp, err
	})
	if hit {
		// The hit path (including waiting out another request's flight)
		// is the cache_lookup stage; a miss's time is the synthesize
		// stage, observed inside the compute function.
		e.met.cacheLookup.Observe(time.Since(lookup))
	}
	return imp, key, hit, err
}

// DieFunc observes per-die outcomes of a yield sweep as dies complete
// (completion order, not die order). Exactly one of mr/err is non-nil.
type DieFunc func(die int, mr *MapResult, err error)

// Do executes one request on the worker pool and waits for its result,
// honoring cancellation: a context canceled before the request starts
// yields an apierr.ErrCanceled result without running it; a yield sweep
// canceled mid-flight stops mapping further dies. onDie (optional)
// fires as each die of a KindYield request completes, before the
// aggregate result returns; calls to it are serialized.
func (e *Engine) Do(ctx context.Context, req Request, onDie DieFunc) Result {
	var res Result
	var df func(req, die int, mr *MapResult, err error)
	if onDie != nil {
		df = func(_, die int, mr *MapResult, err error) { onDie(die, mr, err) }
	}
	e.Submit(ctx, []Request{req}, func(_ int, r Result) { res = r }, df)
	return res
}

// Submit fans the requests out across the worker pool, invoking
// done(i, result) as each request completes — in completion order, not
// submission order, which is what lets the HTTP layer flush finished
// results while slower ones still run. onDie (optional) additionally
// observes every die of yield requests as (request index, die index).
// Both callbacks may be invoked concurrently from pool workers; callers
// synchronize shared state. Once the context is done, requests that
// have not started resolve with apierr.ErrCanceled results and
// in-flight yield sweeps stop at the next die boundary. Submit returns
// when every request has been resolved (run, shed with an
// apierr.ErrOverloaded result when the queue stayed saturated past
// MaxQueueWait, or reported canceled). It is safe to call from many
// goroutines at once.
func (e *Engine) Submit(ctx context.Context, reqs []Request, done func(int, Result), onDie func(req, die int, mr *MapResult, err error)) {
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		i := i
		enqueued := time.Now()
		job := func() {
			defer wg.Done()
			e.met.queueWait.Observe(time.Since(enqueued))
			var df DieFunc
			if onDie != nil {
				df = func(die int, mr *MapResult, err error) { onDie(i, die, mr, err) }
			}
			done(i, e.run(ctx, reqs[i], df))
		}
		if err := e.pool.submitWait(ctx, e.maxQueueWait, job); err != nil {
			// Never reached a worker: resolve the job here, typed by
			// why admission failed.
			wg.Done()
			if errors.Is(err, errQueueFull) {
				done(i, e.overloadedResult(reqs[i].Kind))
			} else {
				done(i, e.canceledResult(reqs[i].Kind, err))
			}
		}
	}
	wg.Wait()
}

// canceledResult accounts a request that was refused due to
// cancellation, keeping the request/failure counters consistent with
// executed work.
func (e *Engine) canceledResult(kind Kind, cause error) Result {
	e.requests.Add(1)
	e.failures.Add(1)
	return errResult(kind, apierr.Canceled(cause))
}

// ShedRetryAfter is the back-off hint attached to every shed result:
// long enough for a saturation spike to drain, short enough that
// clients re-offer load promptly. It rides Result.Err in-process and
// the wire error's retry_after_ms over HTTP, so both client shapes
// observe the same hint.
const ShedRetryAfter = time.Second

// overloadedResult accounts a request shed at admission.
func (e *Engine) overloadedResult(kind Kind) Result {
	e.requests.Add(1)
	e.failures.Add(1)
	e.shed.Add(1)
	return errResult(kind, resilience.WithRetryAfter(apierr.Overloaded(
		"engine: job queue saturated past the %v admission budget", e.maxQueueWait), ShedRetryAfter))
}

// run executes one request inline on the calling goroutine.
func (e *Engine) run(ctx context.Context, req Request, onDie DieFunc) Result {
	if err := ctx.Err(); err != nil {
		return e.canceledResult(req.Kind, err)
	}
	e.requests.Add(1)
	e.met.inflight.Inc()
	start := time.Now()
	res := e.dispatch(ctx, req, onDie)
	elapsed := time.Since(start)
	e.met.inflight.Dec()
	e.met.observeRequest(req.Kind, elapsed)
	if !res.Ok() {
		e.failures.Add(1)
	}
	e.logRequest(ctx, req.Kind, elapsed, res)
	return res
}

// logRequest emits the per-request debug log line. The Enabled check
// keeps the cost of a disabled logger to one virtual call.
func (e *Engine) logRequest(ctx context.Context, kind Kind, d time.Duration, res Result) {
	if !e.logger.Enabled(ctx, slog.LevelDebug) {
		return
	}
	attrs := []slog.Attr{
		slog.String("kind", string(kind)),
		slog.Duration("duration", d),
		slog.Bool("ok", res.Ok()),
	}
	if id := telemetry.RequestID(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	if !res.Ok() {
		attrs = append(attrs, slog.String("code", res.Code), slog.String("error", res.Error))
	}
	e.logger.LogAttrs(ctx, slog.LevelDebug, "engine: request done", attrs...)
}

// dispatch routes by kind, converting panics into error results so one
// bad request cannot take down a pool worker (and with it the daemon).
func (e *Engine) dispatch(ctx context.Context, req Request, onDie DieFunc) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = errResult(req.Kind, apierr.Internal("engine: panic executing request: %v", r))
		}
	}()
	switch req.Kind {
	case KindSynthesize:
		e.byKind[0].Add(1)
		res = e.runSynthesize(ctx, req)
	case KindCompare:
		e.byKind[1].Add(1)
		res = e.runCompare(ctx, req)
	case KindMap:
		e.byKind[2].Add(1)
		res = e.runMap(ctx, req)
	case KindYield:
		e.byKind[3].Add(1)
		res = e.runYield(ctx, req, onDie)
	default:
		res = errResult(req.Kind, apierr.BadSpec("engine: unknown request kind %q", req.Kind))
	}
	return res
}

// resolve elaborates the shared request fields: function, technology,
// options.
func (e *Engine) resolve(req Request) (truthtab.TT, core.Technology, core.Options, error) {
	f, err := req.Function.Resolve()
	if err != nil {
		return truthtab.TT{}, 0, core.Options{}, err
	}
	tech := core.FourTerminal
	if req.Tech != "" {
		if tech, err = core.ParseTechnology(req.Tech); err != nil {
			return truthtab.TT{}, 0, core.Options{}, err
		}
	}
	opts := core.DefaultOptions()
	if req.Options != nil {
		opts = *req.Options
	}
	return f, tech, opts, nil
}

// synth runs one cached synthesis and summarizes it.
func (e *Engine) synth(ctx context.Context, f truthtab.TT, tech core.Technology, opts core.Options) (*core.Implementation, SynthesisResult, error) {
	imp, key, hit, err := e.synthKeyed(ctx, f, tech, opts)
	if err != nil {
		return nil, SynthesisResult{}, err
	}
	return imp, SynthesisResult{
		Tech: tech.String(), Rows: imp.Rows, Cols: imp.Cols, Area: imp.Area(),
		Method: imp.Method, CacheHit: hit, Key: key,
	}, nil
}

func (e *Engine) runSynthesize(ctx context.Context, req Request) Result {
	f, tech, opts, err := e.resolve(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	_, sr, err := e.synth(ctx, f, tech, opts)
	if err != nil {
		return errResult(req.Kind, err)
	}
	return Result{Kind: req.Kind, Synthesis: &sr}
}

func (e *Engine) runCompare(ctx context.Context, req Request) Result {
	f, _, opts, err := e.resolve(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	var cr CompareResult
	for _, tc := range []struct {
		tech core.Technology
		dst  *SynthesisResult
	}{{core.Diode, &cr.Diode}, {core.FET, &cr.FET}, {core.FourTerminal, &cr.Lattice}} {
		_, sr, err := e.synth(ctx, f, tc.tech, opts)
		if err != nil {
			return errResult(req.Kind, err)
		}
		*tc.dst = sr
	}
	return Result{Kind: req.Kind, Compare: &cr}
}

// chipSizeFor resolves and bounds the chip side for random defect
// draws: the request's ChipSize, defaulting to twice the implementation
// footprint. Resolved once per request — the per-die sweep must not
// rebuild the app matrix just to read its dimensions.
func chipSizeFor(req Request, imp *core.Implementation) (int, error) {
	n := req.ChipSize
	if n <= 0 {
		app := imp.App()
		n = app.R
		if app.C > n {
			n = app.C
		}
		n *= 2
	}
	if n > maxChipSize {
		return 0, apierr.BadSpec("engine: chip_size %d exceeds limit %d", n, maxChipSize)
	}
	return n, nil
}

// boundedAttempts resolves and bounds the per-chip configuration budget.
func boundedAttempts(req Request) (int, error) {
	if req.MaxAttempts > maxMaxAttempts {
		return 0, apierr.BadSpec("engine: max_attempts %d exceeds limit %d", req.MaxAttempts, maxMaxAttempts)
	}
	if req.MaxAttempts <= 0 {
		return defaultMaxAttempts, nil
	}
	return req.MaxAttempts, nil
}

// mapOnce places imp on one chip and summarizes the recovery effort,
// feeding the engine's fault-path counters.
func (e *Engine) mapOnce(imp *core.Implementation, chip *defect.Map, scheme bism.Mapper, maxAttempts int, rng *rand.Rand) (*MapResult, error) {
	start := time.Now()
	rep, err := core.MapWithRecovery(imp, chip, scheme, maxAttempts, rng)
	e.met.dieMap.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	e.diesMapped.Add(1)
	e.mapAttempts.Add(uint64(rep.Stats.Configs))
	mr := &MapResult{
		Success:   rep.Stats.Success,
		Configs:   rep.Stats.Configs,
		BISTCalls: rep.Stats.BISTCalls,
		BISDCalls: rep.Stats.BISDCalls,
		ChipSize:  chip.R,
	}
	if rep.Mapping != nil {
		mr.Rows = rep.Mapping.Rows
		mr.Cols = rep.Mapping.Cols
	}
	return mr, nil
}

func (e *Engine) runMap(ctx context.Context, req Request) Result {
	f, tech, opts, err := e.resolve(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return errResult(req.Kind, err)
	}
	imp, _, err := e.synth(ctx, f, tech, opts)
	if err != nil {
		return errResult(req.Kind, err)
	}
	maxAttempts, err := boundedAttempts(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	src, rng := xrand.New()
	src.Seed(req.Seed)
	var chip *defect.Map
	if req.Chip != nil {
		chip, err = req.Chip.ToMap()
	} else {
		var n int
		if n, err = chipSizeFor(req, imp); err == nil {
			chip = defect.Random(n, n, defect.UniformCrosspoint(req.Density), rng)
			e.defectMaps.Add(1)
		}
	}
	if err != nil {
		return errResult(req.Kind, err)
	}
	mr, err := e.mapOnce(imp, chip, scheme, maxAttempts, rng)
	if err != nil {
		return errResult(req.Kind, err)
	}
	return Result{Kind: req.Kind, Map: mr}
}

func (e *Engine) runYield(ctx context.Context, req Request, onDie DieFunc) Result {
	f, tech, opts, err := e.resolve(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return errResult(req.Kind, err)
	}
	if req.Chip != nil {
		return errResult(req.Kind, apierr.BadSpec("engine: yield requests draw random chips; supply density, not an explicit chip"))
	}
	imp, _, err := e.synth(ctx, f, tech, opts)
	if err != nil {
		return errResult(req.Kind, err)
	}
	chips := req.Chips
	if chips <= 0 {
		chips = defaultYieldChips
	}
	if chips > maxChips {
		return errResult(req.Kind, apierr.BadSpec("engine: chips %d exceeds limit %d", chips, maxChips))
	}
	maxAttempts, err := boundedAttempts(req)
	if err != nil {
		return errResult(req.Kind, err)
	}
	size, err := chipSizeFor(req, imp)
	if err != nil {
		return errResult(req.Kind, err)
	}
	app := imp.App()
	if app.R > size || app.C > size {
		return errResult(req.Kind, apierr.Infeasible("engine: implementation %d×%d exceeds chip %d×%d", app.R, app.C, size, size))
	}

	// Hand the sweep to the bit-sliced lane engine: 64 dies drawn per
	// lane-word group, one BIST session per candidate mapping covering
	// the whole group, and only the dies no candidate fits demoted to
	// the scalar mapper. Each die is sub-seeded from req.Seed, so
	// results are independent of worker scheduling; emit fires
	// serialized, in die order within a group.
	spec := yield.Spec{
		App:         app,
		Scheme:      scheme,
		ChipSize:    size,
		Params:      defect.UniformCrosspoint(req.Density),
		Dies:        chips,
		Seed:        req.Seed,
		MaxAttempts: maxAttempts,
		Parallel:    e.workers,
	}
	type dieOut struct {
		st  bism.Stats
		err error
	}
	outs := make([]dieOut, chips)
	runErr := yield.Run(ctx, spec, func(dr yield.DieResult) {
		if dr.Err != nil {
			outs[dr.Die] = dieOut{err: apierr.Internal("engine: die %d: %v", dr.Die, dr.Err)}
			if onDie != nil {
				onDie(dr.Die, nil, outs[dr.Die].err)
			}
			return
		}
		e.defectMaps.Add(1)
		e.diesMapped.Add(1)
		e.mapAttempts.Add(uint64(dr.Stats.Configs))
		if dr.Fast {
			e.diesFast.Add(1)
		} else {
			e.diesDemoted.Add(1)
		}
		outs[dr.Die] = dieOut{st: dr.Stats}
		if onDie != nil {
			// The MapResult is materialized only for streaming
			// observers; the aggregate below reads the raw stats.
			mr := &MapResult{
				Success:   dr.Stats.Success,
				Configs:   dr.Stats.Configs,
				BISTCalls: dr.Stats.BISTCalls,
				BISDCalls: dr.Stats.BISDCalls,
				ChipSize:  size,
			}
			if dr.Mapping != nil {
				mr.Rows = dr.Mapping.Rows
				mr.Cols = dr.Mapping.Cols
			}
			onDie(dr.Die, mr, nil)
		}
	})
	if runErr != nil {
		if errors.Is(runErr, ctx.Err()) {
			return errResult(req.Kind, apierr.Canceled(runErr))
		}
		return errResult(req.Kind, apierr.Internal("engine: yield sweep: %v", runErr))
	}

	yr := &YieldResult{Chips: chips}
	var configs, bist, bisd int
	for _, o := range outs {
		if o.err != nil {
			return errResult(req.Kind, o.err)
		}
		if o.st.Success {
			yr.Successes++
		}
		configs += o.st.Configs
		bist += o.st.BISTCalls
		bisd += o.st.BISDCalls
	}
	yr.SuccessRate = float64(yr.Successes) / float64(chips)
	yr.AvgConfigs = float64(configs) / float64(chips)
	yr.AvgBIST = float64(bist) / float64(chips)
	yr.AvgBISD = float64(bisd) / float64(chips)
	return Result{Kind: req.Kind, Yield: yr}
}

// Stats is a point-in-time snapshot of the engine counters, shaped for
// the daemon's /stats endpoint.
type Stats struct {
	Workers        int    `json:"workers"`
	CacheCapacity  int    `json:"cache_capacity"`
	CacheEntries   int    `json:"cache_entries"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheLoaded counts entries seeded from a persisted snapshot
	// (LoadCacheSnapshot) still attributable to it: warm-start hits serve
	// from these without any synth_calls.
	CacheLoaded uint64 `json:"cache_loaded_from_snapshot"`
	SynthCalls  uint64 `json:"synth_calls"` // underlying core.Synthesize invocations
	Requests    uint64 `json:"requests"`
	Failures    uint64 `json:"failures"`
	// Admission-control counters: requests shed at the queue;
	// QueueDepth/QueuedJobs expose the bounded queue's size and current
	// occupancy.
	Shed uint64 `json:"shed"`
	// Deprecated: always 0. The engine no longer has a degraded
	// synthesis mode; the field keeps the /stats key for readers that
	// still decode it.
	Degraded    uint64 `json:"requests_degraded"`
	QueueDepth  int    `json:"queue_depth"`
	QueuedJobs  int    `json:"queued_jobs"`
	Synthesizes uint64 `json:"requests_synthesize"`
	Compares    uint64 `json:"requests_compare"`
	Maps        uint64 `json:"requests_map"`
	Yields      uint64 `json:"requests_yield"`
	// Fault-path counters: the per-die work the map/yield kinds fan
	// out — dies placed through the self-mapper, random defect maps
	// generated, self-mapping configurations spent in total, and the
	// mean attempts per die.
	DiesMapped          uint64  `json:"dies_mapped"`
	DefectMapsGenerated uint64  `json:"defect_maps_generated"`
	MapAttempts         uint64  `json:"map_attempts_total"`
	MeanMapAttempts     float64 `json:"mean_map_attempts"`
	// DiesCheckedFast counts yield-sweep dies resolved by the lane
	// path's word-parallel candidate schedule; DiesDemotedScalar counts
	// the dies that failed every candidate and fell back to the scalar
	// mapper. Their sum is the yield contribution to DiesMapped.
	DiesCheckedFast   uint64 `json:"dies_checked_fast"`
	DiesDemotedScalar uint64 `json:"dies_demoted_scalar"`
	// Evaluation counts process-wide lattice evaluation work — the
	// synthesis hot path's bit-parallel expansions, Implements checks
	// and word-block percolations.
	Evaluation  lattice.Counters `json:"lattice_evaluation"`
	Fingerprint string           `json:"fingerprint"`
}

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	cs := e.cache.stats()
	dies, attempts := e.diesMapped.Load(), e.mapAttempts.Load()
	mean := 0.0
	if dies > 0 {
		mean = float64(attempts) / float64(dies)
	}
	return Stats{
		DiesMapped:          dies,
		DefectMapsGenerated: e.defectMaps.Load(),
		MapAttempts:         attempts,
		MeanMapAttempts:     mean,
		DiesCheckedFast:     e.diesFast.Load(),
		DiesDemotedScalar:   e.diesDemoted.Load(),
		Evaluation:          lattice.CounterSnapshot(),
		Workers:             e.workers,
		CacheCapacity:       e.cache.capacity,
		CacheEntries:        cs.entries,
		CacheHits:           cs.hits,
		CacheMisses:         cs.misses,
		CacheEvictions:      cs.evictions,
		CacheLoaded:         cs.loads,
		SynthCalls:          e.synthCalls.Load(),
		Requests:            e.requests.Load(),
		Failures:            e.failures.Load(),
		Shed:                e.shed.Load(),
		QueueDepth:          e.pool.depth(),
		QueuedJobs:          e.pool.queued(),
		Synthesizes:         e.byKind[0].Load(),
		Compares:            e.byKind[1].Load(),
		Maps:                e.byKind[2].Load(),
		Yields:              e.byKind[3].Load(),
		Fingerprint:         core.Fingerprint(),
	}
}
