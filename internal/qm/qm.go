// Package qm implements exact two-level (SOP) minimization with the
// Quine–McCluskey procedure: prime implicant generation followed by a
// branch-and-bound minimum covering step with essential-prime and
// dominance reductions.
//
// The minimizer is exact — it returns a cover with the minimum number of
// products, breaking ties by total literal count — and is therefore the
// reference used for the paper's array-size formulas (Fig. 3 and Fig. 5),
// which assume minimized SOPs. Cost grows exponentially with variable
// count; callers should bound n (see Options) and fall back to package
// isop beyond.
package qm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// Options bound the exact minimization effort.
type Options struct {
	MaxVars   int // reject functions with more variables (default 12)
	MaxPrimes int // abort if prime generation exceeds this (default 50000)
	// MaxCoverPrimes rejects covering problems with more primes than
	// this before the branch-and-bound starts: large prime sets are
	// where exact covering stops being tractable, and failing fast
	// keeps the heuristic fallback cheap (default 96).
	MaxCoverPrimes int
	// MaxCoverWork bounds the covering branch-and-bound effort in
	// abstract work units (each node costs ~active-primes²/64 units, so
	// the bound tracks wall time across instance sizes). Default 2e6.
	MaxCoverWork int
}

// DefaultOptions are safe interactive limits: beyond them callers fall
// back to the ISOP heuristic (see latsynth.Covers).
func DefaultOptions() Options {
	return Options{MaxVars: 12, MaxPrimes: 50000, MaxCoverPrimes: 96, MaxCoverWork: 2_000_000}
}

// Primes returns all prime implicants of on ∪ dc (the don't-care set
// participates in prime formation but needs no covering), sorted by
// (Pos, Neg).
//
// Generation is by universal quantification. For a set S of free
// variables let I_S hold the assignments a whose cube — a with the
// variables of S freed — lies inside on ∪ dc. Then I_∅ = on ∨ dc and
// I_{S∪{v}} = I_S ∧ flip_v(I_S), where flip_v complements variable v of
// the index. The subsets are walked depth first in ascending variable
// order, and a subtree is pruned as soon as its table is zero, since
// the tables only shrink as S grows. A representative a of I_S (one
// with a & S = 0) is prime exactly when a ⊕ 2^v is outside I_S for
// every v ∉ S, a test made a whole word at a time.
//
// The representatives counted over all S of one size k are exactly the
// implicants with k free variables, which is the k-th generation of the
// classic pairwise-merging Quine–McCluskey frontier. MaxPrimes bounds
// that count, so it rejects the same inputs it always did.
func Primes(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
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
	nw := care.NumWords()
	g := &primeGen{
		n:      n,
		nw:     nw,
		vars:   uint64(1)<<uint(n) - 1,
		tabs:   make([]uint64, (n+2)*nw),
		counts: make([]int, n+1),
		max:    opts.MaxPrimes,
	}
	for i := 0; i < nw; i++ {
		g.tabs[i] = care.Word(i)
	}
	if err := g.visit(0, 0, 0); err != nil {
		return nil, err
	}
	// Deterministic order for reproducible covers.
	slices.SortFunc(g.primes, func(a, b cube.Cube) int {
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Neg, b.Neg)
	})
	return g.primes, nil
}

// laneMask[v] has bit i set when bit v of i is clear, for the six
// variables that index bits within one 64-bit table word.
var laneMask = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// primeGen is the state of one quantification walk. tabs holds one
// table per depth of the walk (I_S at depth |S|) followed by the
// scratch table for the flip union, nw words each.
type primeGen struct {
	n, nw  int
	vars   uint64 // all n variables
	tabs   []uint64
	counts []int // implicants found per number of free variables
	max    int
	primes []cube.Cube
}

// visit collects the primes of I_free held at depth, then descends into
// every free ∪ {v} with v ≥ next whose table is non-zero.
func (g *primeGen) visit(depth int, free uint64, next int) error {
	nw := g.nw
	cur := g.tabs[depth*nw : (depth+1)*nw]
	ext := g.tabs[(g.n+1)*nw:]
	clear(ext)
	rep := ^uint64(0)
	for v := 0; v < g.n; v++ {
		switch {
		case free>>uint(v)&1 == 0:
			orFlip(ext, cur, v)
		case v < 6:
			rep &= laneMask[v]
		}
	}
	high := int(free >> 6)
	fixed := g.vars &^ free
	count := 0
	for i, w := range cur {
		if i&high != 0 {
			continue
		}
		w &= rep
		count += bits.OnesCount64(w)
		for p := w &^ ext[i]; p != 0; p &= p - 1 {
			a := uint64(i)<<6 | uint64(bits.TrailingZeros64(p))
			g.primes = append(g.primes, cube.Cube{Pos: a & fixed, Neg: ^a & fixed})
		}
	}
	g.counts[depth] += count
	if g.max > 0 && g.counts[depth] > g.max {
		return fmt.Errorf("qm: implicants with %d free variables exceed limit %d", depth, g.max)
	}
	child := g.tabs[(depth+1)*nw : (depth+2)*nw]
	for v := next; v < g.n; v++ {
		if andFlip(child, cur, v) {
			if err := g.visit(depth+1, free|1<<uint(v), v+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// orFlip ors flip_v(src) into dst.
func orFlip(dst, src []uint64, v int) {
	if v < 6 {
		s, m := uint(1)<<uint(v), laneMask[v]
		for i, w := range src {
			dst[i] |= (w&m)<<s | (w>>s)&m
		}
		return
	}
	d := 1 << uint(v-6)
	for i := range src {
		dst[i] |= src[i^d]
	}
}

// andFlip stores src ∧ flip_v(src) in dst and reports whether it is
// non-zero.
func andFlip(dst, src []uint64, v int) bool {
	var nz uint64
	if v < 6 {
		s, m := uint(1)<<uint(v), laneMask[v]
		for i, w := range src {
			dst[i] = w & ((w&m)<<s | (w>>s)&m)
			nz |= dst[i]
		}
		return nz != 0
	}
	d := 1 << uint(v-6)
	for i, w := range src {
		dst[i] = w & src[i^d]
		nz |= dst[i]
	}
	return nz != 0
}

// Minimize returns a minimum SOP cover of the incompletely specified
// function (on, dc): the cover contains all of on, nothing outside
// on ∪ dc, uses the fewest possible products, and among those the fewest
// literals.
func Minimize(on, dc truthtab.TT, opts Options) (cube.Cover, error) {
	primes, err := Primes(on, dc, opts)
	if err != nil {
		return nil, err
	}
	if on.IsZero() {
		return cube.Cover{}, nil
	}
	if on.Or(dc).IsOne() {
		return cube.Cover{cube.Universe}, nil
	}
	if opts.MaxCoverPrimes > 0 && len(primes) > opts.MaxCoverPrimes {
		return nil, fmt.Errorf("qm: %d primes exceeds covering limit %d", len(primes), opts.MaxCoverPrimes)
	}
	ms := on.Minterms()
	sel, complete := solveCover(primes, ms, opts.MaxCoverWork)
	if !complete {
		return nil, fmt.Errorf("qm: covering search exceeded %d work units", opts.MaxCoverWork)
	}
	out := make(cube.Cover, 0, len(sel))
	for _, i := range sel {
		out = append(out, primes[i])
	}
	out.Sort()
	return out, nil
}

// MinimizeTT minimizes a completely specified function.
func MinimizeTT(f truthtab.TT, opts Options) (cube.Cover, error) {
	return Minimize(f, truthtab.Zero(f.NumVars()), opts)
}

// --- minimum covering ---

type coverState struct {
	primeCov [][]uint64 // per prime: bitset over minterm columns
	primeLit []int
	nCols    int
	bestSel  []int
	bestCost coverCost
	work     int // abstract work spent
	maxWork  int
}

type coverCost struct {
	cubes    int
	literals int
}

func (c coverCost) less(d coverCost) bool {
	if c.cubes != d.cubes {
		return c.cubes < d.cubes
	}
	return c.literals < d.literals
}

func bitsetWords(n int) int { return (n + 63) / 64 }

// solveCover picks a minimum subset of primes covering all minterm
// columns. Exact branch and bound over the cyclic core after essential
// and dominance reductions. The second result is false when the node
// budget was exhausted before the search completed (the best solution
// found so far may be suboptimal, so callers treat it as failure).
func solveCover(primes []cube.Cube, ms []uint64, maxWork int) ([]int, bool) {
	nCols := len(ms)
	if maxWork <= 0 {
		maxWork = 1 << 40
	}
	st := &coverState{nCols: nCols, bestCost: coverCost{cubes: 1 << 30}, maxWork: maxWork}
	st.primeCov = make([][]uint64, len(primes))
	st.primeLit = make([]int, len(primes))
	for i, p := range primes {
		w := make([]uint64, bitsetWords(nCols))
		for j, m := range ms {
			if p.Eval(m) {
				w[j>>6] |= 1 << uint(j&63)
			}
		}
		st.primeCov[i] = w
		st.primeLit[i] = p.NumLiterals()
	}
	remaining := make([]uint64, bitsetWords(nCols))
	for j := 0; j < nCols; j++ {
		remaining[j>>6] |= 1 << uint(j&63)
	}
	active := make([]bool, len(primes))
	for i := range active {
		active[i] = true
	}
	st.search(remaining, active, nil, coverCost{})
	sel := append([]int(nil), st.bestSel...)
	sort.Ints(sel)
	return sel, st.work < st.maxWork
}

func (st *coverState) search(remaining []uint64, active []bool, sel []int, cost coverCost) {
	nAct := 0
	for _, a := range active {
		if a {
			nAct++
		}
	}
	st.work += 1 + nAct*nAct/64
	if st.work >= st.maxWork {
		return
	}
	// Reduction loop: essentials and dominance to fixpoint.
	remaining = cloneBits(remaining)
	active = append([]bool(nil), active...)
	sel = append([]int(nil), sel...)
	for {
		if isEmpty(remaining) {
			if cost.less(st.bestCost) {
				st.bestCost = cost
				st.bestSel = append([]int(nil), sel...)
			}
			return
		}
		if !cost.less(st.bestCost) {
			return // bound
		}
		changed := false
		// Essential columns: covered by exactly one active prime.
		ess := -1
		for j := 0; j < st.nCols && ess < 0; j++ {
			if remaining[j>>6]>>uint(j&63)&1 == 0 {
				continue
			}
			cnt, last := 0, -1
			for i, a := range active {
				if a && st.primeCov[i][j>>6]>>uint(j&63)&1 == 1 {
					cnt++
					last = i
					if cnt > 1 {
						break
					}
				}
			}
			if cnt == 0 {
				return // uncoverable (cannot happen with all primes)
			}
			if cnt == 1 {
				ess = last
			}
		}
		if ess >= 0 {
			sel = append(sel, ess)
			cost.cubes++
			cost.literals += st.primeLit[ess]
			andNot(remaining, st.primeCov[ess])
			active[ess] = false
			changed = true
		}
		if !changed {
			// Row dominance: drop prime b if some prime a covers a
			// superset of b's remaining columns at no higher literal
			// cost.
			for b := range active {
				if !active[b] {
					continue
				}
				covB := andBits(st.primeCov[b], remaining)
				if isEmpty(covB) {
					active[b] = false
					changed = true
					continue
				}
				for a := range active {
					if a == b || !active[a] {
						continue
					}
					covA := andBits(st.primeCov[a], remaining)
					if !containsBits(covA, covB) || st.primeLit[a] > st.primeLit[b] {
						continue
					}
					// Equal coverage and cost: keep the lower index
					// only, so the pair does not eliminate itself.
					if containsBits(covB, covA) && st.primeLit[a] == st.primeLit[b] && a > b {
						continue
					}
					active[b] = false
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	// Branch on the hardest column (fewest covering primes).
	bestJ, bestCnt := -1, 1<<30
	for j := 0; j < st.nCols; j++ {
		if remaining[j>>6]>>uint(j&63)&1 == 0 {
			continue
		}
		cnt := 0
		for i, a := range active {
			if a && st.primeCov[i][j>>6]>>uint(j&63)&1 == 1 {
				cnt++
			}
		}
		if cnt < bestCnt {
			bestCnt, bestJ = cnt, j
		}
	}
	if bestJ < 0 {
		return
	}
	for i, a := range active {
		if !a || st.primeCov[i][bestJ>>6]>>uint(bestJ&63)&1 == 0 {
			continue
		}
		rem2 := cloneBits(remaining)
		andNot(rem2, st.primeCov[i])
		act2 := append([]bool(nil), active...)
		act2[i] = false
		st.search(rem2, act2,
			append(append([]int(nil), sel...), i),
			coverCost{cost.cubes + 1, cost.literals + st.primeLit[i]})
	}
}

func cloneBits(w []uint64) []uint64 { return append([]uint64(nil), w...) }

func isEmpty(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

func andNot(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

func andBits(a, b []uint64) []uint64 {
	r := make([]uint64, len(a))
	for i := range a {
		r[i] = a[i] & b[i]
	}
	return r
}

// containsBits reports a ⊇ b.
func containsBits(a, b []uint64) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}
