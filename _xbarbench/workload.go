package main

import (
	"fmt"

	"nanoxbar/pkg/nanoxbar"
)

// op is one request of a workload, in the form the SDK call takes.
type op struct {
	index    int64
	kind     nanoxbar.Kind
	fn       nanoxbar.FunctionSpec
	seed     int64
	density  float64
	chipSize int
	chips    int
	stream   bool // yield: receive every die through OnDie
}

// options renders the op's per-call SDK options (OnDie is added by the
// caller, which owns the per-die observer).
func (o op) options() []nanoxbar.Option {
	switch o.kind {
	case nanoxbar.KindMap:
		return []nanoxbar.Option{nanoxbar.WithSeed(o.seed), nanoxbar.WithDensity(o.density)}
	case nanoxbar.KindYield:
		return []nanoxbar.Option{nanoxbar.WithSeed(o.seed), nanoxbar.WithDensity(o.density),
			nanoxbar.WithChipSize(o.chipSize), nanoxbar.WithChips(o.chips)}
	}
	return nil
}

// workload is one traffic mix. Request i of a run is next(seed, i): a
// pure function, so the same seed sends the same requests whatever the
// clients' interleaving.
type workload struct {
	name string
	why  string
	// warm lists the set-up requests that fill the cache (and build each
	// implementation's self-mapping matrix) before the timed window.
	warm func(seed int64) []op
	next func(seed, i int64) op
	// keepAll retains every result for the output checks; otherwise only
	// the sampled ones are kept (serve_hot's are too many to hold
	// without distorting the heap the window measures).
	keepAll bool
	// sampleEvery and sampleCap choose the fixed seeded sample whose
	// results are re-answered by the in-process oracle.
	sampleEvery int
	sampleCap   int
}

// Salts separating the independent draws of one (seed, i) pair.
const (
	saltHot    = 0x686f74
	saltCold   = 0x636f6c64
	saltSweep  = 0x7377656570
	saltSample = 0x73616d706c65
)

// hotFuncs is serve_hot's working set: named suite functions that
// synthesize in under 10 ms each, so set-up stays short, and that span
// dual, p-circuit and formula-sized implementations.
var hotFuncs = []string{"maj3", "maj5", "xor4", "xor5", "mux4", "cmp3", "add2_s1", "fig4"}

// hotDensities are serve_hot's map densities: low enough that the
// self-mapper stays a small share of a request.
var hotDensities = []float64{0.02, 0.05}

// sweep is one row of the fixed yield mix.
type sweep struct {
	fn       string
	density  float64
	chipSize int
}

// sweepMix puts lane-fast and demoted dies in every run: maj5 and xor4
// at 3% demote many of their dies to the scalar mapper, while fig4 and
// maj3 at 8% resolve almost all of theirs on the lane fast path. Chip
// sizes are fixed (not derived from the implementation) so the inputs
// stay the same when synthesis changes. The costly sweeps are two
// thirds of the cycle, so the latency median and p90 fall inside their
// mode rather than in the gap between the costly and the cheap sweeps.
var sweepMix = []sweep{
	{"maj5", 0.03, 24},
	{"xor4", 0.03, 27},
	{"fig4", 0.08, 10},
	{"maj5", 0.03, 24},
	{"xor4", 0.03, 27},
	{"maj3", 0.08, 9},
}

// Die counts of the two yield workloads.
const (
	bulkChips   = 4096
	streamChips = 256
)

// coldWarm is the number of set-up syntheses of synth_cold: enough to
// warm connections and allocator state, far fewer than the cache holds.
const coldWarm = 16

var workloads = []*workload{
	{
		name:        "serve_hot",
		why:         "synthesize and map over 8 cached suite functions: client, net/http and httpapi do the work, not synthesis",
		warm:        func(int64) []op { return namedWarm(hotFuncs) },
		next:        hotOp,
		sampleEvery: 64,
		sampleCap:   2048,
	},
	{
		name:        "synth_cold",
		why:         "every request synthesizes a distinct random 5/6-input function: synthesis and cache inserts/evictions do the work",
		warm:        coldWarmOps,
		next:        coldOp,
		keepAll:     true,
		sampleEvery: 64,
		sampleCap:   48,
	},
	{
		name:        "yield_bulk",
		why:         "4096-die yield sweeps returned as one aggregate: the defect draw, lane check and repair do the work",
		warm:        func(int64) []op { return namedWarm(sweepFuncs()) },
		next:        func(seed, i int64) op { return sweepOp(seed, i, bulkChips, false) },
		keepAll:     true,
		sampleEvery: 128,
		sampleCap:   16,
	},
	{
		name:        "yield_stream",
		why:         "256-die sweeps streamed die by die through OnDie: per-die NDJSON encode, flush and decode do the work",
		warm:        func(int64) []op { return namedWarm(sweepFuncs()) },
		next:        func(seed, i int64) op { return sweepOp(seed, i, streamChips, true) },
		keepAll:     true,
		sampleEvery: 256,
		sampleCap:   32,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sampled reports whether request i belongs to the oracle sample: one
// request in every sampleEvery consecutive ones, at a seeded offset.
func (w *workload) sampled(seed, i int64) bool {
	r := streamFor(seed, saltSample, 0)
	return (i+int64(r.intn(w.sampleEvery)))%int64(w.sampleEvery) == 0
}

// namedWarm synthesizes each function and maps it once, so the timed
// window finds both the implementation and its self-mapping matrix
// cached.
func namedWarm(names []string) []op {
	var ops []op
	for _, n := range names {
		fn := nanoxbar.Func(n)
		ops = append(ops,
			op{kind: nanoxbar.KindSynthesize, fn: fn},
			op{kind: nanoxbar.KindMap, fn: fn, seed: 1, density: 0.02})
	}
	return ops
}

// sweepFuncs lists the functions of the yield mix once each.
func sweepFuncs() []string {
	var names []string
	seen := make(map[string]bool)
	for _, s := range sweepMix {
		if !seen[s.fn] {
			seen[s.fn] = true
			names = append(names, s.fn)
		}
	}
	return names
}

// hotOp alternates synthesize and map requests over the hot set. The
// mix of kinds, functions and densities is fixed by the index (exactly
// 1:1, uniform over the functions); the seed draws the map seeds. A
// seeded mix would let the seed move the metrics through the share of
// costly requests.
func hotOp(seed, i int64) op {
	o := op{index: i, fn: nanoxbar.Func(hotFuncs[(i/2)%int64(len(hotFuncs))])}
	if i%2 == 0 {
		o.kind = nanoxbar.KindSynthesize
		return o
	}
	r := streamFor(seed, saltHot, i)
	o.kind = nanoxbar.KindMap
	o.density = hotDensities[(i/16)%int64(len(hotDensities))]
	o.seed = r.int63()
	return o
}

// coldTable returns synth_cold's function i as a truth-table literal.
// Every fourth function has 5 inputs, the others 6: a fixed share, so
// the latency percentiles fall inside the 6-input mode rather than in
// the gap between the two modes, where the seed would move them.
// Within a width the table is a bijection of the index (mix64 over
// 64-bit tables, fmix32 over 32-bit ones, applied to an odd-stride
// counter), so no two requests of a run share a table, and different
// widths never share a cache key.
func coldTable(seed, i int64) string {
	base := mix64(uint64(seed) ^ saltCold)
	if i%4 == 0 {
		return fmt.Sprintf("5:0x%x", fmix32(uint32(base)+uint32(i)*0x9e3779b9))
	}
	return fmt.Sprintf("6:0x%x", mix64(base+uint64(i)*golden))
}

func coldOp(seed, i int64) op {
	return op{index: i, kind: nanoxbar.KindSynthesize, fn: nanoxbar.TT(coldTable(seed, i))}
}

// coldWarmOps are synth_cold's set-up syntheses, drawn at negative
// indices so they never repeat a timed request's function.
func coldWarmOps(seed int64) []op {
	ops := make([]op, coldWarm)
	for k := range ops {
		ops[k] = coldOp(seed, -int64(k)-1)
	}
	return ops
}

// sweepOp cycles through the fixed mix; the seed draws each sweep's
// seed, and with it every die's defects.
func sweepOp(seed, i int64, chips int, stream bool) op {
	r := streamFor(seed, saltSweep, i)
	s := sweepMix[i%int64(len(sweepMix))]
	return op{
		index: i, kind: nanoxbar.KindYield, fn: nanoxbar.Func(s.fn),
		seed: r.int63(), density: s.density, chipSize: s.chipSize,
		chips: chips, stream: stream,
	}
}
