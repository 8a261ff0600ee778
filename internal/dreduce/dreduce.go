// Package dreduce implements D-reducible function preprocessing for
// lattice synthesis, Section III-B-2 of the DATE'17 paper (after
// Bernasconi–Ciriani and Bernasconi–Ciriani–Frontini–Trucco).
//
// A Boolean function f is D-reducible when its on-set is contained in an
// affine space A strictly smaller than the whole Boolean space. Then
//
//	f = χA · fA
//
// where χA is the characteristic function of A and fA the projection of
// f onto A. The projection has the same number of on-set points but
// lives in a dim(A)-dimensional space, so its lattice is often smaller;
// the overall lattice is the AND composition of the lattice for χA and
// the lattice for fA.
package dreduce

import (
	"fmt"

	"nanoxbar/internal/gf2"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

// Analysis describes the affine structure of a function's on-set.
type Analysis struct {
	N         int
	Affine    *gf2.Affine       // affine hull A of the on-set
	Checks    []gf2.ParityCheck // affine constraints characterizing A
	FreeVars  []int             // coordinates parameterizing A
	Reducible bool              // dim(A) < N
	ChiA      truthtab.TT       // characteristic function of A
	FA        truthtab.TT       // projection of f onto A (depends only on FreeVars)
}

// Analyze computes the affine hull of f's on-set, the characteristic
// function χA, and the projection fA with f = χA · fA. It returns an
// error for the constant-0 function (no hull exists).
func Analyze(f truthtab.TT) (*Analysis, error) {
	n := f.NumVars()
	ms := f.Minterms()
	if len(ms) == 0 {
		return nil, fmt.Errorf("dreduce: constant-0 function has no affine hull")
	}
	aff := gf2.AffineHull(n, ms)
	checks := aff.ParityChecks()
	free := aff.FreeCoordinates()

	chi := truthtab.FromFunc(n, func(a uint64) bool {
		for _, c := range checks {
			if !c.Holds(a) {
				return false
			}
		}
		return true
	})
	// fA(a) depends only on a's values at the free coordinates: it is
	// f evaluated at the unique point of A sharing those values.
	fa := truthtab.FromFunc(n, func(a uint64) bool {
		var fv uint64
		for i, c := range free {
			if a>>uint(c)&1 == 1 {
				fv |= 1 << uint(i)
			}
		}
		return f.Bit(aff.PointFromFree(free, fv))
	})
	return &Analysis{
		N: n, Affine: aff, Checks: checks, FreeVars: free,
		Reducible: aff.Dim() < n, ChiA: chi, FA: fa,
	}, nil
}

// Verify checks the defining identity f = χA ∧ fA.
func (an *Analysis) Verify(f truthtab.TT) bool {
	return an.ChiA.And(an.FA).Equal(f)
}

// Result is a synthesized D-reducible decomposition lattice.
type Result struct {
	Lattice  *lattice.Lattice
	Analysis *Analysis
}

// Area returns the lattice area.
func (r *Result) Area() int { return r.Lattice.Area() }

// Synthesize builds the composed lattice AND(L(χA), L(fA)). For
// non-reducible functions it degenerates to plain dual-method synthesis
// of f (χA ≡ 1 contributes nothing).
func Synthesize(f truthtab.TT, opts latsynth.Options) (*Result, error) {
	if f.IsZero() || f.IsOne() {
		return &Result{Lattice: lattice.Constant(f.IsOne())}, nil
	}
	an, err := Analyze(f)
	if err != nil {
		return nil, err
	}
	if !an.Verify(f) {
		return nil, fmt.Errorf("dreduce: decomposition identity failed (f=%v)", f)
	}
	var l *lattice.Lattice
	if !an.Reducible || an.ChiA.IsOne() {
		res, err := latsynth.DualMethod(f, opts)
		if err != nil {
			return nil, err
		}
		l = res.Lattice
	} else {
		// χA = ∧ parity checks. Composing one lattice per check keeps
		// the cost additive in the checks, whereas a joint synthesis
		// of the product would multiply their SOP sizes (each
		// weight-w affine constraint alone needs 2^(w-1) products).
		parts := make([]*lattice.Lattice, 0, len(an.Checks)+1)
		n := f.NumVars()
		for _, pc := range an.Checks {
			check := pc
			tt := truthtab.FromFunc(n, check.Holds)
			res, err := latsynth.DualMethod(tt, opts)
			if err != nil {
				return nil, err
			}
			parts = append(parts, res.Lattice)
		}
		if !an.FA.IsOne() {
			faRes, err := latsynth.DualMethod(an.FA, opts)
			if err != nil {
				return nil, err
			}
			parts = append(parts, faRes.Lattice)
		}
		l = lattice.AndAll(parts...)
		if opts.PostReduce && l.Area() <= 1200 {
			l = latsynth.PostReduce(l, f)
		}
	}
	if !l.Implements(f) {
		return nil, fmt.Errorf("dreduce: composed lattice does not implement f")
	}
	return &Result{Lattice: l, Analysis: an}, nil
}

// RandomDReducible generates a seeded random D-reducible function of n
// variables whose affine hull has the given codimension (n − dim). The
// generator draws random parity checks until they are independent, then
// fills a random nonempty on-set inside the affine space. onDensity in
// (0,1] controls how much of the space is filled. The second return
// value is the affine space used.
func RandomDReducible(n, codim int, onDensity float64, rnd interface{ Uint64() uint64 }) (truthtab.TT, *gf2.Affine) {
	if codim < 0 || codim >= n {
		panic(fmt.Sprintf("dreduce: bad codimension %d for n=%d", codim, n))
	}
	if onDensity <= 0 || onDensity > 1 {
		panic("dreduce: onDensity out of (0,1]")
	}
	msk := uint64(1)<<uint(n) - 1
	// Draw a random point and random independent directions spanning a
	// (n-codim)-dimensional space.
	p0 := rnd.Uint64() & msk
	var basis []uint64
	for len(basis) < n-codim {
		v := rnd.Uint64() & msk
		m := gf2.NewMatrix(n, append(append([]uint64(nil), basis...), v)...)
		if m.Rank() == len(basis)+1 {
			basis = append(basis, v)
		}
	}
	// Normalize to RREF so the Affine satisfies the invariant that
	// PointFromFree relies on.
	bm := gf2.NewMatrix(n, basis...)
	bm.RREF()
	aff := &gf2.Affine{N: n, Point: p0, Basis: bm.Rows}
	f := truthtab.New(n)
	nonEmpty := false
	aff.Enumerate(func(x uint64) {
		// Density threshold on a 16-bit draw.
		if float64(rnd.Uint64()&0xffff)/65536.0 < onDensity {
			f.SetBit(x, true)
			nonEmpty = true
		}
	})
	if !nonEmpty {
		f.SetBit(p0, true)
	}
	return f, aff
}
