package defect

import (
	"math/rand"
	"reflect"
	"testing"

	"nanoxbar/internal/xrand"
)

// laneTestParams are the draw distributions the lane/scalar equivalence
// is pinned over: empty, uniform, saturated, wire faults only,
// everything at once, and a clustered map.
func laneTestParams() map[string]Params {
	return map[string]Params{
		"zero":      {},
		"uniform3%": UniformCrosspoint(0.03),
		"dense":     UniformCrosspoint(1.0),
		"wires": {
			PRowBreak: 0.05, PColBreak: 0.05,
			PRowBridge: 0.04, PColBridge: 0.04,
		},
		"everything": {
			PStuckOpen: 0.02, PStuckClosed: 0.01,
			PRowBreak: 0.03, PColBreak: 0.02,
			PRowBridge: 0.02, PColBridge: 0.03,
		},
		"clustered": {
			PStuckOpen: 0.01, PStuckClosed: 0.005,
			Clustered: true, ClusterCount: 3, ClusterRadius: 4, ClusterBoost: 12,
		},
	}
}

// TestDrawLaneMatchesRandomInto is the lane-draw contract: for the same
// seed, DrawLane fills a lane bit-for-bit identically to RandomInto on
// a scalar map, and leaves the RNG in the identical state — which is
// what lets the yield engine's demotion path reseed and replay a
// failing lane as a scalar map.
func TestDrawLaneMatchesRandomInto(t *testing.T) {
	shapes := [][2]int{{1, 1}, {5, 9}, {64, 64}, {70, 3}}
	for name, p := range laneTestParams() {
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			lp := NewLanePlanes(r, c)
			lp.Reset()
			got := NewMap(r, c)
			want := NewMap(r, c)
			for lane := 0; lane < 64; lane += 13 {
				seed := int64(1000*lane) + int64(r*31+c)
				laneSrc := rand.NewSource(seed)
				laneRng := rand.New(laneSrc)
				lp.DrawLane(lane, p, laneRng)

				refSrc := rand.NewSource(seed)
				refRng := rand.New(refSrc)
				RandomInto(want, p, refRng)

				lp.ExtractLane(got, lane)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d lane %d: lane draw differs from RandomInto\nlane:\n%s\nscalar:\n%s",
						name, r, c, lane, got, want)
				}
				if laneRng.Uint64() != refRng.Uint64() {
					t.Fatalf("%s %dx%d lane %d: RNG states diverge after draw", name, r, c, lane)
				}
			}
		}
	}
}

// TestDrawLaneLanesIndependent checks lanes don't bleed into each
// other: drawing lanes A and B into one group gives each lane exactly
// its own die.
func TestDrawLaneLanesIndependent(t *testing.T) {
	p := UniformCrosspoint(0.05)
	p.PRowBreak, p.PColBridge = 0.05, 0.05
	lp := NewLanePlanes(20, 20)
	lp.Reset()
	src := rand.NewSource(7)
	rng := rand.New(src)
	for lane := 0; lane < 64; lane++ {
		src.Seed(int64(lane) * 77)
		lp.DrawLane(lane, p, rng)
	}
	got := NewMap(20, 20)
	want := NewMap(20, 20)
	for lane := 0; lane < 64; lane++ {
		src.Seed(int64(lane) * 77)
		RandomInto(want, p, rng)
		lp.ExtractLane(got, lane)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lane %d polluted by sibling draws", lane)
		}
	}
}

// TestLanePlanesReset checks a reused group starts clean.
func TestLanePlanesReset(t *testing.T) {
	lp := NewLanePlanes(8, 8)
	rng := rand.New(rand.NewSource(3))
	lp.DrawLane(5, UniformCrosspoint(1.0), rng)
	lp.Reset()
	m := NewMap(8, 8)
	for lane := 0; lane < 64; lane++ {
		lp.ExtractLane(m, lane)
		if m.AnyDefect() {
			t.Fatalf("lane %d dirty after Reset", lane)
		}
	}
}

func BenchmarkDrawLaneGroup64(b *testing.B) {
	// One full 64-die lane group of 64×64 dies at the yield sweep's 2%
	// density: the draw half of the lane yield engine's per-group cost.
	// Each lane is seeded the way the yield runner seeds it, through an
	// O(1) SplitMix reseed behind one rand.Rand, so the benchmark
	// measures the draw rather than math/rand's table initialization.
	p := UniformCrosspoint(0.02)
	lp := NewLanePlanes(64, 64)
	src, rng := xrand.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Reset()
		for lane := 0; lane < 64; lane++ {
			src.Seed(xrand.SubSeed(42, i*64+lane))
			lp.DrawLane(lane, p, rng)
		}
	}
}
