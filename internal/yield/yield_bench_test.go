package yield

import (
	"context"
	"math/rand"
	"testing"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
)

// benchSpec mirrors the engine's yield-sweep workload — 64×64 dies at
// 2% crosspoint density under the greedy mapper — sized to one full
// lane group per iteration.
func benchSpec(b *testing.B) Spec {
	b.Helper()
	return Spec{
		App:    bism.RandomApp(4, 6, 0.5, rand.New(rand.NewSource(17))),
		Scheme: bism.Greedy{}, ChipSize: 64,
		Params: defect.UniformCrosspoint(0.02),
		Dies:   64, Seed: 42, MaxAttempts: 200,
		Parallel: 1, // single-threaded: the CI gate must not depend on core count
	}
}

// BenchmarkYieldLane64 is the CI-gated number: one 64-die lane group
// per op on a single worker — draw 64 defect planes into lane words,
// probe the candidate schedule as word intersections, demote the few
// failing lanes to the scalar mapper. Core-count independent by
// construction, unlike the parallel engine sweep it feeds.
func BenchmarkYieldLane64(b *testing.B) {
	spec := benchSpec(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := 0
		if err := Run(ctx, spec, func(dr DieResult) {
			if dr.Stats.Success {
				ok++
			}
		}); err != nil {
			b.Fatal(err)
		}
		if ok == 0 {
			b.Fatal("no die mapped")
		}
	}
}

// BenchmarkYieldScalar64 is the test-only scalar oracle on the same
// workload — the before side of the lane speedup.
func BenchmarkYieldScalar64(b *testing.B) {
	spec := benchSpec(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := 0
		if err := runScalar(ctx, spec, func(dr DieResult) {
			if dr.Stats.Success {
				ok++
			}
		}); err != nil {
			b.Fatal(err)
		}
		if ok == 0 {
			b.Fatal("no die mapped")
		}
	}
}
