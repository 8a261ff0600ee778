// Package latsynth synthesizes four-terminal switching lattices for
// Boolean functions, implementing the methods compared in Section III-B
// of the DATE'17 paper:
//
//   - the Altun–Riedel dual-based construction ([2],[3] in the paper):
//     columns from an SOP cover of f, rows from an SOP cover of the dual
//     f^D, each crosspoint holding a literal shared by its row and
//     column products — giving the Fig. 5 size #products(f^D) ×
//     #products(f);
//   - a bounded exhaustive optimal search (the stand-in for the
//     SAT-based optimal synthesis of Gange–Søndergaard–Stuckey, [9]);
//   - a row/column post-reduction pass;
//   - a naive OR-of-columns SOP construction used as a baseline.
package latsynth

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/isop"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/qm"
	"nanoxbar/internal/truthtab"
)

// CellChoice selects how the dual method picks one of the shared
// literals for a crosspoint.
type CellChoice int

// Cell literal selection heuristics.
const (
	// FirstCommon takes the lowest-indexed shared literal.
	FirstCommon CellChoice = iota
	// MostFrequent takes the shared literal occurring in the most
	// candidate sets across the grid, which tends to help the
	// post-reduction pass merge rows and columns.
	MostFrequent
)

// Options configure synthesis.
type Options struct {
	// Exact requests exact minimum SOP covers (Quine–McCluskey) for f
	// and f^D. When false, or when QM exceeds its limits, the
	// irredundant Minato–Morreale covers are used instead.
	Exact bool
	// QM bounds the exact minimizer effort.
	QM qm.Options
	// Cells selects the crosspoint literal heuristic.
	Cells CellChoice
	// PostReduce runs the row/column deletion pass after construction.
	PostReduce bool
	// PostReduceMaxArea skips post-reduction on lattices larger than
	// this (each deletion trial re-verifies the whole function, which
	// is quadratic in area; 0 means the default of 1200).
	PostReduceMaxArea int
}

// DefaultOptions are the settings used by the paper-reproduction
// benches: exact covers where affordable, frequency-based cell choice,
// post-reduction on.
func DefaultOptions() Options {
	return Options{Exact: true, QM: qm.DefaultOptions(), Cells: MostFrequent, PostReduce: true}
}

// postReduceLimit resolves the PostReduceMaxArea default.
func (o Options) postReduceLimit() int {
	if o.PostReduceMaxArea > 0 {
		return o.PostReduceMaxArea
	}
	return 1200
}

// Result carries a synthesized lattice and its provenance.
type Result struct {
	Lattice   *lattice.Lattice
	FCover    cube.Cover // SOP of f used for columns
	DualCover cube.Cover // SOP of f^D used for rows
	Method    string
	ExactSOP  bool // covers are exact minimum SOPs
}

// Area returns the lattice area R·C.
func (r *Result) Area() int { return r.Lattice.Area() }

// Covers computes SOP covers for f and f^D per the options; exact when
// requested and affordable, otherwise irredundant.
func Covers(f truthtab.TT, opts Options) (fc, dc cube.Cover, exact bool) {
	fd := f.Dual()
	if opts.Exact {
		c1, err1 := qm.MinimizeTT(f, opts.QM)
		c2, err2 := qm.MinimizeTT(fd, opts.QM)
		if err1 == nil && err2 == nil {
			return c1, c2, true
		}
	}
	return isop.OfTT(f), isop.OfTT(fd), false
}

// DualMethod synthesizes a lattice with the Altun–Riedel construction.
// The resulting size is #products(f^D) rows × #products(f) columns
// before post-reduction (the paper's Fig. 5 formula).
func DualMethod(f truthtab.TT, opts Options) (*Result, error) {
	if f.IsZero() {
		return &Result{Lattice: lattice.Constant(false), Method: "dual"}, nil
	}
	if f.IsOne() {
		return &Result{Lattice: lattice.Constant(true), Method: "dual"}, nil
	}
	fc, dc, exact := Covers(f, opts)
	l, err := BuildDualGrid(fc, dc, opts.Cells)
	if err != nil {
		return nil, err
	}
	if !l.Implements(f) {
		// The construction is proven correct for implicant covers of f
		// and f^D; reaching this indicates a bug upstream.
		return nil, fmt.Errorf("latsynth: dual-method lattice does not implement f (f=%v)", f)
	}
	if opts.PostReduce && l.Area() <= opts.postReduceLimit() {
		l = PostReduce(l, f)
	}
	return &Result{Lattice: l, FCover: fc, DualCover: dc, Method: "dual", ExactSOP: exact}, nil
}

// BuildDualGrid assembles the dual-method grid from covers of f
// (columns) and f^D (rows). Every row product and column product must
// share a literal; by the implicant-sharing lemma this always holds when
// fc covers f with implicants of f and dc covers f^D with implicants of
// f^D.
func BuildDualGrid(fc, dc cube.Cover, choice CellChoice) (*lattice.Lattice, error) {
	if len(fc) == 0 || len(dc) == 0 {
		return nil, fmt.Errorf("latsynth: empty cover")
	}
	rows, cols := len(dc), len(fc)
	common := make([]cube.Cube, rows*cols)
	// Literal frequencies over every cell's candidate set, indexed by
	// variable: one table per polarity.
	var posFreq, negFreq [64]int
	for i, q := range dc {
		for j, p := range fc {
			sh := q.CommonLiterals(p)
			if sh.IsUniverse() {
				return nil, fmt.Errorf("latsynth: products %v and %v share no literal", p, q)
			}
			common[i*cols+j] = sh
			for m := sh.Pos; m != 0; m &= m - 1 {
				posFreq[bits.TrailingZeros64(m)]++
			}
			for m := sh.Neg; m != 0; m &= m - 1 {
				negFreq[bits.TrailingZeros64(m)]++
			}
		}
	}
	l := lattice.New(rows, cols)
	for k, sh := range common {
		v, neg := pickLiteral(sh, choice, &posFreq, &negFreq)
		l.Set(k/cols, k%cols, lattice.Lit(v, neg))
	}
	return l, nil
}

// pickLiteral chooses a cell's literal among its shared literals sh,
// taken in ascending variable order with the positive literal first.
// FirstCommon keeps the first; MostFrequent moves on only to a strictly
// more frequent one.
func pickLiteral(sh cube.Cube, choice CellChoice, posFreq, negFreq *[64]int) (v int, neg bool) {
	best := -1
	for m := sh.Pos | sh.Neg; m != 0; m &= m - 1 {
		u := bits.TrailingZeros64(m)
		if sh.Pos>>uint(u)&1 == 1 && (best < 0 || choice == MostFrequent && posFreq[u] > best) {
			v, neg, best = u, false, posFreq[u]
		}
		if sh.Neg>>uint(u)&1 == 1 && (best < 0 || choice == MostFrequent && negFreq[u] > best) {
			v, neg, best = u, true, negFreq[u]
		}
	}
	return v, neg
}

// PostReduce repeatedly deletes any single row or column whose removal
// leaves the lattice still implementing f, until no deletion applies.
// Deleting a wire is always physically realizable, so this is a safe
// area optimization. Each deletion trial re-verifies the function
// through one shared bit-parallel evaluator, which exits on the first
// mismatching 64-assignment word — the common case, since most
// deletions break the function. Trials are built into one scratch
// lattice that trades places with the current one on acceptance; l
// itself is never modified, and is returned when nothing can go.
func PostReduce(l *lattice.Lattice, f truthtab.TT) *lattice.Lattice {
	ev := lattice.NewEvaluator()
	cur, cand := l, new(lattice.Lattice)
	accept := func() {
		prev := cur
		cur = cand
		if prev == l {
			cand = new(lattice.Lattice)
		} else {
			cand = prev
		}
	}
	for {
		improved := false
		if cur.R > 1 {
			for i := 0; i < cur.R; i++ {
				cand.DeleteRowFrom(cur, i)
				if ev.Implements(cand, f) {
					accept()
					improved = true
					break
				}
			}
		}
		if !improved && cur.C > 1 {
			for j := 0; j < cur.C; j++ {
				cand.DeleteColFrom(cur, j)
				if ev.Implements(cand, f) {
					accept()
					improved = true
					break
				}
			}
		}
		if !improved {
			return cur
		}
	}
}
