package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/telemetry"
)

// submitBatch runs reqs through Submit and returns their results in
// submission order.
func submitBatch(ctx context.Context, e *Engine, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	e.Submit(ctx, reqs, func(i int, r Result) { results[i] = r }, nil)
	return results
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Workers: 4, CacheSize: 64})
	t.Cleanup(e.Close)
	return e
}

func TestSynthesizeMatchesUncached(t *testing.T) {
	e := newTestEngine(t)
	opts := core.DefaultOptions()
	for _, spec := range []benchfn.Spec{benchfn.Majority(3), benchfn.Parity(4), benchfn.PaperExample()} {
		for _, tech := range []core.Technology{core.Diode, core.FET, core.FourTerminal} {
			want, err := core.Synthesize(spec.F, tech, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, tech, err)
			}
			got, _, hit, err := e.synthKeyed(context.Background(), spec.F, tech, opts)
			if err != nil || hit {
				t.Fatalf("%s/%v first call: hit=%v err=%v", spec.Name, tech, hit, err)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols || got.Method != want.Method {
				t.Fatalf("%s/%v: cached %dx%d %s, uncached %dx%d %s",
					spec.Name, tech, got.Rows, got.Cols, got.Method, want.Rows, want.Cols, want.Method)
			}
			if !got.Verify(spec.F) {
				t.Fatalf("%s/%v: cached implementation does not compute the function", spec.Name, tech)
			}
			again, _, hit, err := e.synthKeyed(context.Background(), spec.F, tech, opts)
			if err != nil || !hit || again != got {
				t.Fatalf("%s/%v second call: hit=%v same=%v err=%v", spec.Name, tech, hit, again == got, err)
			}
		}
	}
}

// TestConcurrentCacheCorrectness hammers the engine cache from many
// goroutines (run under -race in CI) and asserts both the hit rate and
// result equality with uncached core.Synthesize.
func TestConcurrentCacheCorrectness(t *testing.T) {
	e := newTestEngine(t)
	opts := core.DefaultOptions()
	specs := []benchfn.Spec{
		benchfn.Majority(3), benchfn.Parity(4), benchfn.Threshold(4, 2), benchfn.PaperExample(),
	}
	want := make([]*core.Implementation, len(specs))
	for i, s := range specs {
		var err error
		if want[i], err = core.Synthesize(s.F, core.FourTerminal, opts); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 16, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(specs)
				imp, _, _, err := e.synthKeyed(context.Background(), specs[i].F, core.FourTerminal, opts)
				if err != nil {
					t.Errorf("synthesize %s: %v", specs[i].Name, err)
					return
				}
				if imp.Rows != want[i].Rows || imp.Cols != want[i].Cols {
					t.Errorf("%s: got %dx%d, want %dx%d", specs[i].Name, imp.Rows, imp.Cols, want[i].Rows, want[i].Cols)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	total := st.CacheHits + st.CacheMisses
	if total != goroutines*rounds {
		t.Fatalf("cache saw %d lookups, want %d", total, goroutines*rounds)
	}
	if st.CacheMisses != uint64(len(specs)) {
		t.Fatalf("misses=%d, want %d (one per distinct function)", st.CacheMisses, len(specs))
	}
	if st.SynthCalls != uint64(len(specs)) {
		t.Fatalf("synth calls=%d, want %d", st.SynthCalls, len(specs))
	}
}

// TestBatchSingleMissDeterministic is the acceptance scenario: a batch
// of 100 per-chip mapping requests for the same function completes with
// exactly one underlying core.Synthesize call, and a fixed seed gives
// identical results across runs.
func TestBatchSingleMissDeterministic(t *testing.T) {
	const n = 100
	makeBatch := func() []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Kind:     KindMap,
				Function: FunctionSpec{Name: "maj3"},
				Density:  0.05,
				Seed:     int64(1000 + i),
			}
		}
		return reqs
	}

	e1 := newTestEngine(t)
	res1 := submitBatch(context.Background(), e1, makeBatch())
	st := e1.Stats()
	if st.SynthCalls != 1 {
		t.Fatalf("batch of %d same-function requests ran %d syntheses, want 1", n, st.SynthCalls)
	}
	if st.CacheMisses != 1 || st.CacheHits != n-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.CacheHits, st.CacheMisses, n-1)
	}
	for i, r := range res1 {
		if !r.Ok() {
			t.Fatalf("request %d failed: %s", i, r.Error)
		}
		if r.Map == nil {
			t.Fatalf("request %d has no map result", i)
		}
	}

	e2 := newTestEngine(t)
	res2 := submitBatch(context.Background(), e2, makeBatch())
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("fixed seeds gave different results across engines")
	}
}

func TestMapAgainstSuppliedChip(t *testing.T) {
	e := newTestEngine(t)
	// Build a chip with a known defect map, round-trip through the
	// wire spec, and check the returned mapping validates.
	rng := rand.New(rand.NewSource(5))
	chip := defect.Random(16, 16, defect.UniformCrosspoint(0.04), rng)
	spec := FromMap(chip)
	back, err := spec.ToMap()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != chip.String() {
		t.Fatal("defect map wire round trip changed the map")
	}
	res := e.Do(context.Background(), Request{
		Kind:     KindMap,
		Function: FunctionSpec{Expr: "x1x2 + x1'x2'"},
		Scheme:   "hybrid",
		Chip:     &spec,
		Seed:     7,
	}, nil)
	if !res.Ok() || res.Map == nil {
		t.Fatalf("map request failed: %+v", res)
	}
	if res.Map.ChipSize != 16 {
		t.Fatalf("chip size %d, want 16", res.Map.ChipSize)
	}
	if res.Map.Success {
		f, err := FunctionSpec{Expr: "x1x2 + x1'x2'"}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		imp, _, _, err := e.synthKeyed(context.Background(), f, core.FourTerminal, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Map.Rows) != imp.ToApp().R || len(res.Map.Cols) != imp.ToApp().C {
			t.Fatalf("mapping shape %dx%d does not match app %dx%d",
				len(res.Map.Rows), len(res.Map.Cols), imp.ToApp().R, imp.ToApp().C)
		}
	}
}

func TestCompareUsesSharedCache(t *testing.T) {
	e := newTestEngine(t)
	res := e.Do(context.Background(), Request{Kind: KindCompare, Function: FunctionSpec{Name: "maj3"}}, nil)
	if !res.Ok() || res.Compare == nil {
		t.Fatalf("compare failed: %+v", res)
	}
	if res.Compare.Diode.Area == 0 || res.Compare.FET.Area == 0 || res.Compare.Lattice.Area == 0 {
		t.Fatalf("zero area in %+v", res.Compare)
	}
	// A follow-up synthesize on each technology must hit.
	for _, tech := range []string{"diode", "fet", "lattice"} {
		r := e.Do(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Tech: tech}, nil)
		if !r.Ok() || !r.Synthesis.CacheHit {
			t.Fatalf("synthesize after compare on %s: %+v", tech, r)
		}
	}
}

func TestYieldSweep(t *testing.T) {
	e := newTestEngine(t)
	req := Request{
		Kind:     KindYield,
		Function: FunctionSpec{Name: "maj3"},
		Density:  0.03,
		Chips:    40,
		ChipSize: 20,
		Seed:     99,
	}
	res := e.Do(context.Background(), req, nil)
	if !res.Ok() || res.Yield == nil {
		t.Fatalf("yield failed: %+v", res)
	}
	y := res.Yield
	if y.Chips != 40 {
		t.Fatalf("chips=%d, want 40", y.Chips)
	}
	if y.Successes < 1 {
		t.Fatal("no die recovered at 3% density on a 20x20 chip; expected most to succeed")
	}
	if y.SuccessRate != float64(y.Successes)/40 {
		t.Fatalf("inconsistent success rate %v for %d successes", y.SuccessRate, y.Successes)
	}
	if y.AvgBIST <= 0 {
		t.Fatalf("avg BIST calls %v, want > 0", y.AvgBIST)
	}
	// Determinism: same seed, same aggregate.
	res2 := e.Do(context.Background(), req, nil)
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("yield sweep not deterministic for fixed seed")
	}
	// Exactly one synthesis across both sweeps.
	if st := e.Stats(); st.SynthCalls != 1 {
		t.Fatalf("synth calls=%d, want 1", st.SynthCalls)
	}
	// Fault-path accounting: both sweeps drew and mapped 40 dies each.
	st := e.Stats()
	if st.DiesMapped != 80 || st.DefectMapsGenerated != 80 {
		t.Fatalf("dies=%d maps=%d, want 80/80", st.DiesMapped, st.DefectMapsGenerated)
	}
	// Every yield die either resolved on the lane fast path or was
	// demoted to the scalar mapper.
	if st.DiesCheckedFast+st.DiesDemotedScalar != 80 {
		t.Fatalf("fast=%d demoted=%d, want sum 80", st.DiesCheckedFast, st.DiesDemotedScalar)
	}
	if st.MapAttempts < st.DiesMapped {
		t.Fatalf("map attempts %d below dies %d", st.MapAttempts, st.DiesMapped)
	}
	if want := float64(st.MapAttempts) / float64(st.DiesMapped); st.MeanMapAttempts != want {
		t.Fatalf("mean attempts %v, want %v", st.MeanMapAttempts, want)
	}
}

func TestRequestValidation(t *testing.T) {
	e := newTestEngine(t)
	for name, req := range map[string]Request{
		"unknown kind":    {Kind: "melt", Function: FunctionSpec{Name: "maj3"}},
		"no function":     {Kind: KindSynthesize},
		"two functions":   {Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3", Expr: "x1"}},
		"unknown name":    {Kind: KindSynthesize, Function: FunctionSpec{Name: "nope"}},
		"bad expr":        {Kind: KindSynthesize, Function: FunctionSpec{Expr: "x1 +"}},
		"bad tt":          {Kind: KindSynthesize, Function: FunctionSpec{TT: "3:zz"}},
		"bad tech":        {Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Tech: "memristor"},
		"bad scheme":      {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Scheme: "psychic"},
		"yield with chip": {Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Chip: &DefectMapSpec{Rows: []string{"."}}},
		"huge chips":      {Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Chips: 4_000_000_000},
		"huge chip size":  {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, ChipSize: 4_000_000_000},
		"huge attempts":   {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, MaxAttempts: 2_000_000_000},
	} {
		if res := e.Do(context.Background(), req, nil); res.Ok() {
			t.Errorf("%s: request unexpectedly succeeded", name)
		}
	}
	if st := e.Stats(); st.Failures == 0 {
		t.Fatal("failure counter did not move")
	}
}

func TestConcurrentBatches(t *testing.T) {
	// Several goroutines submitting batches at once must all complete
	// with correct per-batch ordering.
	e := newTestEngine(t)
	const batches = 8
	var wg sync.WaitGroup
	wg.Add(batches)
	for b := 0; b < batches; b++ {
		b := b
		go func() {
			defer wg.Done()
			reqs := []Request{
				{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}},
				{Kind: KindCompare, Function: FunctionSpec{Name: "xor4"}},
				{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Density: 0.02, Seed: int64(b)},
			}
			res := submitBatch(context.Background(), e, reqs)
			if len(res) != 3 {
				t.Errorf("batch %d: %d results", b, len(res))
				return
			}
			if res[0].Synthesis == nil || res[1].Compare == nil || res[2].Map == nil {
				t.Errorf("batch %d: results out of order: %+v", b, res)
			}
		}()
	}
	wg.Wait()
	// Distinct (function, tech) pairs across every batch: maj3 on the
	// lattice (shared by synthesize and map) and xor4 on all three
	// technologies — four underlying syntheses no matter how many
	// batches raced.
	if st := e.Stats(); st.SynthCalls != 4 {
		t.Fatalf("synth calls=%d, want 4", st.SynthCalls)
	}
}

// distinctSynth returns n synthesize requests for n distinct 3-input
// functions, each a separate cache key.
func distinctSynth(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: KindSynthesize, Tech: "diode",
			Function: FunctionSpec{TT: fmt.Sprintf("3:0x%02x", i+1)}}
	}
	return reqs
}

// TestCacheHoldsItsConfiguredSize pins the capacity rule: a cache of
// CacheSize entries holds that many distinct keys without evicting any.
func TestCacheHoldsItsConfiguredSize(t *testing.T) {
	const size = 64
	e := New(Config{Workers: 2, CacheSize: size})
	defer e.Close()
	reqs := distinctSynth(size)
	for i, res := range submitBatch(context.Background(), e, reqs) {
		if !res.Ok() {
			t.Fatalf("request %d: %s", i, res.Error)
		}
	}
	if st := e.Stats(); st.CacheEvictions != 0 || st.CacheEntries != size {
		t.Fatalf("evictions=%d entries=%d, want 0/%d", st.CacheEvictions, st.CacheEntries, size)
	}
	for i, req := range reqs {
		key, err := e.KeyFor(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.PeekCached(key); !ok {
			t.Fatalf("key %d of %d evicted from a %d-entry cache", i, size, size)
		}
	}
}

// TestPeerFillVerified: a peer answer that does not implement the
// requested function (or is for another technology) is refused and
// counted, and the engine synthesizes locally; a correct one is cached
// as is.
func TestPeerFillVerified(t *testing.T) {
	opts := core.DefaultOptions()
	maj, parity := benchfn.Majority(3).F, benchfn.Parity(3).F
	wrongFunc, err := core.Synthesize(parity, core.FourTerminal, opts)
	if err != nil {
		t.Fatal(err)
	}
	wrongTech, err := core.Synthesize(maj, core.Diode, opts)
	if err != nil {
		t.Fatal(err)
	}
	right, err := core.Synthesize(maj, core.FourTerminal, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		peer      *core.Implementation
		synth     uint64
		rejected  float64
		fromCache bool
	}{
		{"wrong function", wrongFunc, 1, 1, false},
		{"wrong technology", wrongTech, 1, 1, false},
		{"correct", right, 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 2, CacheSize: 8})
			defer e.Close()
			e.SetPeerFill(func(context.Context, string) *core.Implementation { return tc.peer })
			got, _, _, err := e.synthKeyed(context.Background(), maj, core.FourTerminal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Verify(maj) || got.Tech != core.FourTerminal {
				t.Fatal("served implementation does not compute the requested function")
			}
			if (got == tc.peer) != tc.fromCache {
				t.Fatalf("served the peer's implementation: %v, want %v", got == tc.peer, tc.fromCache)
			}
			if n := e.Stats().SynthCalls; n != tc.synth {
				t.Fatalf("synth_calls=%d, want %d", n, tc.synth)
			}
			var buf bytes.Buffer
			if err := e.Registry().WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			exp, err := telemetry.ParseExposition(&buf)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := exp.Value("nanoxbar_cache_rejected_total", map[string]string{"source": "peer"})
			if !ok || v != tc.rejected {
				t.Fatalf("cache_rejected_total{source=peer} = %v (found %v), want %v", v, ok, tc.rejected)
			}
		})
	}
}
