package qm

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// implicant is a cube in (value, don't-care-mask) representation.
type implicant struct {
	val uint64 // variable values on cared positions
	dc  uint64 // positions not in the cube
}

func (im implicant) toCube(n int) cube.Cube {
	var c cube.Cube
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v)
		if im.dc&bit != 0 {
			continue
		}
		if im.val&bit != 0 {
			c.Pos |= bit
		} else {
			c.Neg |= bit
		}
	}
	return c
}

// primesReference is the sort-based Quine–McCluskey frontier that
// Primes used before it moved to generation by universal
// quantification. It is kept as the test oracle: Primes must return the
// same slice and make the same MaxPrimes decision.
func primesReference(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
	n := on.NumVars()
	if dc.NumVars() != n {
		return nil, fmt.Errorf("qm: on/dc variable mismatch")
	}
	if opts.MaxVars > 0 && n > opts.MaxVars {
		return nil, fmt.Errorf("qm: %d variables exceeds limit %d", n, opts.MaxVars)
	}
	care := on.Or(dc)
	if care.IsZero() {
		return nil, nil
	}
	if care.IsOne() {
		return []cube.Cube{cube.Universe}, nil
	}

	// The generation loop keeps the frontier in a slice sorted by
	// (dc mask, popcount, value): pairing partners then live in
	// adjacent popcount runs of the same dc run, and duplicates of the
	// next generation compact away after one sort — no per-generation
	// maps. The cur/next backing arrays and the combined flags are
	// swapped and reused across generations, so steady-state work
	// allocates only when a generation outgrows every previous one.
	cur := make([]implicant, 0, care.CountOnes())
	care.ForEachMinterm(func(a uint64) {
		cur = append(cur, implicant{val: a})
	})
	var (
		next     []implicant
		combined []bool
		primes   []cube.Cube
	)
	for len(cur) > 0 {
		if opts.MaxPrimes > 0 && len(cur) > opts.MaxPrimes {
			return nil, fmt.Errorf("qm: implicant frontier %d exceeds limit %d", len(cur), opts.MaxPrimes)
		}
		slices.SortFunc(cur, func(a, b implicant) int {
			if a.dc != b.dc {
				if a.dc < b.dc {
					return -1
				}
				return 1
			}
			if d := bits.OnesCount64(a.val) - bits.OnesCount64(b.val); d != 0 {
				return d
			}
			if a.val < b.val {
				return -1
			}
			if a.val > b.val {
				return 1
			}
			return 0
		})
		if cap(combined) < len(cur) {
			combined = make([]bool, len(cur))
		} else {
			combined = combined[:len(cur)]
			clear(combined)
		}
		next = next[:0]
		for gs := 0; gs < len(cur); {
			ge := gs
			for ge < len(cur) && cur[ge].dc == cur[gs].dc {
				ge++
			}
			// Pair each popcount run with the run one higher.
			for ls := gs; ls < ge; {
				pc := bits.OnesCount64(cur[ls].val)
				le := ls
				for le < ge && bits.OnesCount64(cur[le].val) == pc {
					le++
				}
				he := le
				for he < ge && bits.OnesCount64(cur[he].val) == pc+1 {
					he++
				}
				for i := ls; i < le; i++ {
					for j := le; j < he; j++ {
						diff := cur[i].val ^ cur[j].val
						if bits.OnesCount64(diff) != 1 {
							continue
						}
						combined[i], combined[j] = true, true
						next = append(next, implicant{val: cur[i].val &^ diff, dc: cur[i].dc | diff})
					}
				}
				ls = le
			}
			gs = ge
		}
		for i, im := range cur {
			if !combined[i] {
				primes = append(primes, im.toCube(n))
			}
		}
		// Dedup the next generation (one merged implicant arises once
		// per don't-care bit) by sort + compact.
		slices.SortFunc(next, func(a, b implicant) int {
			if a.dc != b.dc {
				if a.dc < b.dc {
					return -1
				}
				return 1
			}
			if a.val < b.val {
				return -1
			}
			if a.val > b.val {
				return 1
			}
			return 0
		})
		next = slices.Compact(next)
		cur, next = next, cur
	}
	// Deterministic order for reproducible covers.
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Pos != primes[j].Pos {
			return primes[i].Pos < primes[j].Pos
		}
		return primes[i].Neg < primes[j].Neg
	})
	return primes, nil
}
