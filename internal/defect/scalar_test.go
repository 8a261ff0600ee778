package defect

import "math/rand"

// RandomScalar is the scalar reference generator: one uniform draw per
// crosspoint and per wire, exactly the pre-bitset semantics. The
// property tests pin RandomInto's distributions against it, and the
// benchmarks report the sparse sampler's speedup over it.
func RandomScalar(r, c int, p Params, rng *rand.Rand) *Map {
	m := NewMap(r, c)
	boost := func(ri, ci int) float64 { return 1 }
	if p.Clustered && p.ClusterCount > 0 {
		type pt struct{ r, c int }
		centers := make([]pt, p.ClusterCount)
		for i := range centers {
			centers[i] = pt{rng.Intn(r), rng.Intn(c)}
		}
		boost = func(ri, ci int) float64 {
			for _, ct := range centers {
				dr, dc := ri-ct.r, ci-ct.c
				if dr < 0 {
					dr = -dr
				}
				if dc < 0 {
					dc = -dc
				}
				if dr+dc <= p.ClusterRadius {
					return p.ClusterBoost
				}
			}
			return 1
		}
	}
	for ri := 0; ri < r; ri++ {
		for ci := 0; ci < c; ci++ {
			b := boost(ri, ci)
			po := minF(p.PStuckOpen*b, 1)
			pc := minF(p.PStuckClosed*b, 1)
			u := rng.Float64()
			switch {
			case u < po:
				m.Set(ri, ci, StuckOpen)
			case u < po+pc:
				m.Set(ri, ci, StuckClosed)
			}
		}
	}
	for ri := 0; ri < r; ri++ {
		m.SetRowBroken(ri, rng.Float64() < p.PRowBreak)
	}
	for ci := 0; ci < c; ci++ {
		m.SetColBroken(ci, rng.Float64() < p.PColBreak)
	}
	for ri := 0; ri+1 < r; ri++ {
		m.SetRowBridge(ri, rng.Float64() < p.PRowBridge)
	}
	for ci := 0; ci+1 < c; ci++ {
		m.SetColBridge(ci, rng.Float64() < p.PColBridge)
	}
	return m
}
