package yield

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// testApp is a fixed mid-density application; seeded so every test run
// sees the same footprint.
func testApp(tb testing.TB) *bism.App {
	tb.Helper()
	return bism.RandomApp(4, 6, 0.5, rand.New(rand.NewSource(17)))
}

// runner names a sweep implementation: Run, or the scalar oracle.
type runner struct {
	name string
	run  func(ctx context.Context, spec Spec, emit func(DieResult)) error
}

var (
	laneRunner   = runner{"lane64", Run}
	scalarRunner = runner{"scalar", runScalar}
)

// collect runs r over spec and returns results indexed by die,
// verifying emit fires exactly once per die.
func collect(tb testing.TB, r runner, spec Spec) []DieResult {
	tb.Helper()
	out := make([]DieResult, spec.Dies)
	seen := make([]bool, spec.Dies)
	// emit runs on worker goroutines: Errorf only (Fatalf would Goexit a
	// worker and deadlock the runner's WaitGroup).
	err := r.run(context.Background(), spec, func(dr DieResult) {
		if dr.Die < 0 || dr.Die >= spec.Dies {
			tb.Errorf("%s emitted die %d outside [0,%d)", r.name, dr.Die, spec.Dies)
			return
		}
		if seen[dr.Die] {
			tb.Errorf("%s emitted die %d twice", r.name, dr.Die)
		}
		seen[dr.Die] = true
		out[dr.Die] = dr
	})
	if err != nil {
		tb.Fatalf("%s: %v", r.name, err)
	}
	if tb.Failed() {
		tb.FailNow()
	}
	for die, ok := range seen {
		if !ok {
			tb.Fatalf("%s never emitted die %d", r.name, die)
		}
	}
	return out
}

func sameMapping(a, b *bism.Mapping) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || reflect.DeepEqual(*a, *b)
}

// TestLaneMatchesScalarBitForBit is the tentpole contract: the lane
// path equals the scalar oracle die for die — mapping,
// stats, fast flag — across die counts that are not multiples of 64
// (tail-lane masking), all-defective and zero-defect planes, every
// mapping scheme, and both serial and parallel execution.
func TestLaneMatchesScalarBitForBit(t *testing.T) {
	app := testApp(t)
	schemes := []bism.Mapper{bism.Greedy{}, bism.Blind{}, bism.Hybrid{}}
	densities := []float64{0, 0.03, 1.0}
	dieCounts := []int{1, 63, 64, 65, 130}
	for _, scheme := range schemes {
		for _, density := range densities {
			for _, dies := range dieCounts {
				for _, par := range []int{1, 4} {
					spec := Spec{
						App: app, Scheme: scheme, ChipSize: 48,
						Params: defect.UniformCrosspoint(density),
						Dies:   dies, Seed: 99, MaxAttempts: 50, Parallel: par,
					}
					lane := collect(t, laneRunner, spec)
					scalar := collect(t, scalarRunner, spec)
					for die := range lane {
						l, s := lane[die], scalar[die]
						if l.Err != nil || s.Err != nil {
							t.Fatalf("%s d=%v dies=%d par=%d die %d: unexpected errors %v / %v",
								scheme.Name(), density, dies, par, die, l.Err, s.Err)
						}
						if l.Fast != s.Fast || !reflect.DeepEqual(l.Stats, s.Stats) || !sameMapping(l.Mapping, s.Mapping) {
							t.Fatalf("%s d=%v dies=%d par=%d die %d: lane %+v != scalar %+v",
								scheme.Name(), density, dies, par, die, l, s)
						}
					}
				}
			}
		}
	}
}

// TestWireFaultDensitiesAgree extends the equivalence over wire faults
// and clustered maps, which exercise the bridge/broken lane planes.
func TestWireFaultDensitiesAgree(t *testing.T) {
	app := testApp(t)
	params := []defect.Params{
		{PStuckOpen: 0.01, PStuckClosed: 0.01, PRowBreak: 0.05, PColBreak: 0.05,
			PRowBridge: 0.05, PColBridge: 0.05},
		{PStuckOpen: 0.01, Clustered: true, ClusterCount: 2, ClusterRadius: 5, ClusterBoost: 20},
	}
	for pi, p := range params {
		spec := Spec{
			App: app, Scheme: bism.Greedy{}, ChipSize: 70,
			Params: p, Dies: 100, Seed: 3, MaxAttempts: 40, Parallel: 2,
		}
		lane := collect(t, laneRunner, spec)
		scalar := collect(t, scalarRunner, spec)
		for die := range lane {
			l, s := lane[die], scalar[die]
			if l.Fast != s.Fast || !reflect.DeepEqual(l.Stats, s.Stats) || !sameMapping(l.Mapping, s.Mapping) {
				t.Fatalf("params[%d] die %d: lane %+v != scalar %+v", pi, die, l, s)
			}
		}
	}
}

// TestZeroDefectAllFast checks the fast path's best case: defect-free
// dies all pass the first candidate with exactly one BIST session.
func TestZeroDefectAllFast(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 48,
		Dies: 130, Seed: 1, MaxAttempts: 10, Parallel: 3,
	}
	for _, dr := range collect(t, laneRunner, spec) {
		if !dr.Fast || !dr.Stats.Success || dr.Stats.Configs != 1 || dr.Stats.BISTCalls != 1 {
			t.Fatalf("defect-free die %d: %+v, want fast single-probe success", dr.Die, dr)
		}
		if dr.Mapping == nil {
			t.Fatalf("defect-free die %d: nil mapping", dr.Die)
		}
	}
}

// TestFastMappingsValidate spot-checks that fast-path mappings really
// place the application on the die they were reported for.
func TestFastMappingsValidate(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 48,
		Params: defect.UniformCrosspoint(0.05),
		Dies:   64, Seed: 12, MaxAttempts: 50, Parallel: 1,
	}
	chip := defect.NewMap(48, 48)
	src, rng := xrand.New()
	for _, dr := range collect(t, laneRunner, spec) {
		if dr.Stats.Success {
			src.Seed(xrand.SubSeed(spec.Seed, dr.Die))
			defect.RandomInto(chip, spec.Params, rng)
			if !bism.Validate(bism.NewChip(chip), app, dr.Mapping) {
				t.Fatalf("die %d: reported mapping fails validation (fast=%v)", dr.Die, dr.Fast)
			}
		}
	}
}

// TestSpecValidation checks unrunnable specs are rejected up front.
func TestSpecValidation(t *testing.T) {
	app := testApp(t)
	good := Spec{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: 1, MaxAttempts: 1}
	bad := []Spec{
		{},
		{App: app, ChipSize: 48, Dies: 1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 3, Dies: 1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: -1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: 1},
	}
	for _, r := range []runner{laneRunner, scalarRunner} {
		if err := r.run(context.Background(), good, func(DieResult) {}); err != nil {
			t.Fatalf("%s rejected a valid spec: %v", r.name, err)
		}
		for i, spec := range bad {
			if err := r.run(context.Background(), spec, func(DieResult) {}); err == nil {
				t.Fatalf("%s accepted bad spec %d", r.name, i)
			}
		}
	}
}

// TestCancellationStopsAtGroupBoundary checks a canceled sweep returns
// the context error without emitting the remaining dies.
func TestCancellationStopsAtGroupBoundary(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 64,
		Params: defect.UniformCrosspoint(0.02),
		Dies:   50_000, Seed: 5, MaxAttempts: 50, Parallel: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	err := Run(ctx, spec, func(DieResult) {
		if emitted.Add(1) == 3 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if n := emitted.Load(); n == 0 || n >= int64(spec.Dies) {
		t.Fatalf("canceled sweep emitted %d of %d dies", n, spec.Dies)
	}
}

// panicMapper stands in for a buggy scheme: demotion must surface the
// panic as per-die errors, not kill the worker goroutine.
type panicMapper struct{}

func (panicMapper) Name() string { return "panic" }
func (panicMapper) Map(*bism.Chip, *bism.App, int, *rand.Rand) (*bism.Mapping, bism.Stats) {
	panic("boom")
}

func TestMapperPanicBecomesDieErrors(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: panicMapper{}, ChipSize: 48,
		Params: defect.UniformCrosspoint(1.0), // all dies demote
		Dies:   70, Seed: 8, MaxAttempts: 5, Parallel: 2,
	}
	for _, r := range []runner{laneRunner, scalarRunner} {
		count := 0
		err := r.run(context.Background(), spec, func(dr DieResult) {
			count++
			if dr.Err == nil {
				t.Errorf("%s die %d: expected an error from the panicking mapper", r.name, dr.Die)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if count != spec.Dies {
			t.Fatalf("%s emitted %d of %d dies", r.name, count, spec.Dies)
		}
	}
}
