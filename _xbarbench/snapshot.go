package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"

	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
)

// Engine histogram families the benchmark reads.
const (
	stageFamily   = "nanoxbar_stage_duration_seconds"
	requestFamily = "nanoxbar_request_duration_seconds"
)

// Counter slots of a snapshot.
const (
	cHits = iota
	cMisses
	cEvictions
	cShed
	cDegraded
	cSynths
	cWordBlocks
	cFast
	cDemoted
	cDies
	cAttempts
	cMallocs
	cAllocBytes
	nCounters
)

// Histogram slots of a snapshot: the engine's stages, then its request
// duration summed over kinds.
const (
	hQueueWait = iota
	hCacheLookup
	hSynthesize
	hDieMap
	hRequest
	nHists
)

var engineStages = [...]string{
	hQueueWait: "queue_wait", hCacheLookup: "cache_lookup",
	hSynthesize: "synthesize", hDieMap: "die_map",
}

var engineKinds = []engine.Kind{engine.KindSynthesize, engine.KindCompare, engine.KindMap, engine.KindYield}

// histSum is one histogram's running sum (seconds) and count.
type histSum struct {
	sum   float64
	count uint64
}

// counters is the counter state at one edge of a window, or (after
// sub) the work done inside it. Set-up, oracle and replay work happen
// outside the windows, so they never reach a delta.
type counters struct {
	n               [nCounters]uint64
	h               [nHists]histSum
	gcCPU, totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(eng *engine.Engine) (counters, error) {
	var c counters
	st := eng.Stats()
	c.n[cHits], c.n[cMisses], c.n[cEvictions] = st.CacheHits, st.CacheMisses, st.CacheEvictions
	c.n[cShed], c.n[cDegraded] = st.Shed, st.Degraded
	c.n[cSynths], c.n[cWordBlocks] = st.SynthCalls, st.Evaluation.WordBlocks
	c.n[cFast], c.n[cDemoted] = st.DiesCheckedFast, st.DiesDemotedScalar
	c.n[cDies], c.n[cAttempts] = st.DiesMapped, st.MapAttempts

	var buf bytes.Buffer
	if err := eng.Registry().WriteText(&buf); err != nil {
		return c, err
	}
	exp, err := telemetry.ParseExposition(&buf)
	if err != nil {
		return c, err
	}
	for i, stage := range engineStages {
		if h, ok := exp.Histogram(stageFamily, map[string]string{"stage": stage}); ok {
			c.h[i] = histSum{h.Sum, h.Count}
		}
	}
	for _, k := range engineKinds {
		if h, ok := exp.Histogram(requestFamily, map[string]string{"kind": string(k)}); ok {
			c.h[hRequest].sum += h.Sum
			c.h[hRequest].count += h.Count
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.n[cMallocs], c.n[cAllocBytes] = ms.Mallocs, ms.TotalAlloc
	metrics.Read(cpuSamples)
	c.gcCPU, c.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return c, nil
}

// sub returns the work done between snapshot a and c.
func (c counters) sub(a counters) counters {
	for i := range c.n {
		c.n[i] -= a.n[i]
	}
	for i := range c.h {
		c.h[i].sum -= a.h[i].sum
		c.h[i].count -= a.h[i].count
	}
	c.gcCPU -= a.gcCPU
	c.totalCPU -= a.totalCPU
	return c
}

// add sums the work of two windows.
func (c counters) add(o counters) counters {
	for i := range c.n {
		c.n[i] += o.n[i]
	}
	for i := range c.h {
		c.h[i].sum += o.h[i].sum
		c.h[i].count += o.h[i].count
	}
	c.gcCPU += o.gcCPU
	c.totalCPU += o.totalCPU
	return c
}

// meanUs is a histogram's mean observation, in µs (0 when empty).
func (h histSum) meanUs() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum * 1e6 / float64(h.count)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineUs is the engine's queue-wait plus execution time in a window,
// in µs.
func (c counters) engineUs() float64 {
	return (c.h[hQueueWait].sum + c.h[hRequest].sum) * 1e6
}

// layers derives the per-layer metrics counters measure over a window
// in which ops requests ran.
func (c counters) layers(ops int) map[string]float64 {
	f := func(i int) float64 { return float64(c.n[i]) }
	return map[string]float64{
		"engine.queue_wait_us":          c.h[hQueueWait].meanUs(),
		"engine.cache_lookup_us":        c.h[hCacheLookup].meanUs(),
		"engine.request_us":             c.h[hRequest].meanUs(),
		"engine.cache_hit_ratio":        ratio(f(cHits), f(cHits)+f(cMisses)),
		"engine.cache_evictions":        f(cEvictions),
		"engine.shed":                   f(cShed),
		"engine.degraded":               f(cDegraded),
		"synth.synthesize_us":           c.h[hSynthesize].meanUs(),
		"lattice.word_blocks_per_synth": ratio(f(cWordBlocks), f(cSynths)),
		"yield.fast_ratio":              ratio(f(cFast), f(cFast)+f(cDemoted)),
		"bism.mean_map_attempts":        ratio(f(cAttempts), f(cDies)),
		"bism.die_map_us":               c.h[hDieMap].meanUs(),
		"process.alloc_kb_per_op":       ratio(f(cAllocBytes)/1024, float64(ops)),
		"process.allocs_per_op":         ratio(f(cMallocs), float64(ops)),
		"process.gc_cpu_fraction":       ratio(c.gcCPU, c.totalCPU),
	}
}
