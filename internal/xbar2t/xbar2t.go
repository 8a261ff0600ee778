// Package xbar2t models two-terminal switch nano-crossbar arrays —
// diode-based (diode-resistor logic) and FET-based (complementary
// CMOS-like logic) — and the array-size formulas of Fig. 3 of the
// DATE'17 paper. Boolean functions are implemented in sum-of-products
// form only, the paper's structural constraint for two-terminal
// crossbars.
//
// Size formulas (Fig. 3, with L(f) = number of distinct literals,
// P(·) = number of products of the minimized SOP):
//
//	diode array:   P(f) × (L(f) + 1)
//	FET array:     L(f) × (P(f) + P(f^D))
//
// and Fig. 5 for the four-terminal lattice: P(f^D) × P(f).
//
// The structural models evaluate the arrays crosspoint by crosspoint so
// that the fault-tolerance packages can reuse them with injected
// defects.
package xbar2t

import (
	"fmt"
	"strings"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// Sizes aggregates the paper's array-size formulas for one function.
type Sizes struct {
	DiodeRows, DiodeCols     int
	FETRows, FETCols         int
	LatticeRows, LatticeCols int
}

// DiodeArea returns rows×columns of the diode array.
func (s Sizes) DiodeArea() int { return s.DiodeRows * s.DiodeCols }

// FETArea returns rows×columns of the FET array.
func (s Sizes) FETArea() int { return s.FETRows * s.FETCols }

// FormulaSizes evaluates the Fig. 3 and Fig. 5 formulas on SOP covers of
// f (fc) and of its dual (dc).
func FormulaSizes(fc, dc cube.Cover) Sizes {
	return Sizes{
		DiodeRows: fc.NumProducts(), DiodeCols: fc.DistinctLiterals() + 1,
		FETRows: fc.DistinctLiterals(), FETCols: fc.NumProducts() + dc.NumProducts(),
		LatticeRows: dc.NumProducts(), LatticeCols: fc.NumProducts(),
	}
}

// DiodeArray is a diode-resistor logic crossbar: one row (horizontal
// nanowire) per product, one column (vertical nanowire) per distinct
// literal, plus one output column that wire-ORs the product rows.
type DiodeArray struct {
	Products cube.Cover
	Literals []cube.Lit // column order
	// Crosspoints[r][c] is true when a diode joins product row r to
	// literal column c.
	Crosspoints [][]bool
}

// NewDiodeArray builds the array for an SOP cover.
func NewDiodeArray(fc cube.Cover) *DiodeArray {
	lits := coverLiterals(fc)
	a := &DiodeArray{Products: fc.Clone(), Literals: lits}
	a.Crosspoints = make([][]bool, len(fc))
	for r, p := range fc {
		row := make([]bool, len(lits))
		for c, l := range lits {
			row[c] = p.HasLiteral(l.Var, l.Neg)
		}
		a.Crosspoints[r] = row
	}
	return a
}

// Rows returns the row count (products).
func (a *DiodeArray) Rows() int { return len(a.Products) }

// Cols returns the column count including the output column.
func (a *DiodeArray) Cols() int { return len(a.Literals) + 1 }

// Area returns Rows × Cols, the Fig. 3 diode size.
func (a *DiodeArray) Area() int { return a.Rows() * a.Cols() }

// Eval computes the output for input assignment x: each product row is
// the wired-AND of its connected literal columns; the output column is
// the wired-OR of the rows.
func (a *DiodeArray) Eval(x uint64) bool {
	for r := range a.Crosspoints {
		all := true
		for c, connected := range a.Crosspoints[r] {
			if !connected {
				continue
			}
			l := a.Literals[c]
			v := x>>uint(l.Var)&1 == 1
			if v == l.Neg {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Function expands the array's output over n variables.
func (a *DiodeArray) Function(n int) truthtab.TT {
	return truthtab.FromFunc(n, a.Eval)
}

// String renders the crosspoint matrix with literal column headers.
func (a *DiodeArray) String() string {
	var sb strings.Builder
	sb.WriteString("diode array (rows=products, cols=literals+out)\n")
	for _, l := range a.Literals {
		fmt.Fprintf(&sb, "%4s", l.String())
	}
	sb.WriteString(" out\n")
	for r := range a.Crosspoints {
		for _, on := range a.Crosspoints[r] {
			if on {
				sb.WriteString("   D")
			} else {
				sb.WriteString("   .")
			}
		}
		sb.WriteString("   D\n")
	}
	return sb.String()
}

// DriveState describes the FET array's output node condition.
type DriveState int

// Output drive conditions.
const (
	Driven DriveState = iota
	Floating
	Conflict
)

// FETArray is a complementary FET crossbar: N-type series chains (one
// column per product of f) connect the output to VDD when their product
// holds, and P-type chains (one column per product of f^D, evaluated on
// complemented inputs) connect the output to GND when f is 0. Rows are
// the distinct literal input lines of both planes.
type FETArray struct {
	FProducts cube.Cover // pull-up plane (one column each)
	DProducts cube.Cover // pull-down plane (one column each)
	Rows      []cube.Lit // input lines
}

// NewFETArray builds the array from covers of f and f^D.
func NewFETArray(fc, dc cube.Cover) *FETArray {
	all := append(fc.Clone(), dc...)
	return &FETArray{FProducts: fc.Clone(), DProducts: dc.Clone(), Rows: coverLiterals(all)}
}

// NumRows returns the input-line count of the structural model (distinct
// literals of both planes; the Fig. 3 formula counts only f's).
func (a *FETArray) NumRows() int { return len(a.Rows) }

// NumCols returns P(f) + P(f^D).
func (a *FETArray) NumCols() int { return len(a.FProducts) + len(a.DProducts) }

// Area returns the structural array size.
func (a *FETArray) Area() int { return a.NumRows() * a.NumCols() }

// EvalDrive returns the electrical output state and its value for input
// x. For implicant covers of a dual pair (f, f^D) the output is always
// Driven; Floating or Conflict indicate a malformed or faulty array.
func (a *FETArray) EvalDrive(x uint64) (bool, DriveState) {
	up := false // some f product chain conducts → output 1
	for _, p := range a.FProducts {
		if p.Eval(x) {
			up = true
			break
		}
	}
	down := false // some dual chain conducts on complemented inputs → output 0
	for _, q := range a.DProducts {
		if q.Eval(^x) { // P-type devices see complemented inputs
			down = true
			break
		}
	}
	switch {
	case up && down:
		return false, Conflict
	case up:
		return true, Driven
	case down:
		return false, Driven
	default:
		return false, Floating
	}
}

// Eval returns the output value (Conflict/Floating read as 0).
func (a *FETArray) Eval(x uint64) bool {
	v, st := a.EvalDrive(x)
	return v && st == Driven
}

// Function expands the output over n variables.
func (a *FETArray) Function(n int) truthtab.TT {
	return truthtab.FromFunc(n, a.Eval)
}

// WellFormed reports whether the output is driven without conflict for
// every assignment over n variables.
func (a *FETArray) WellFormed(n int) bool {
	for x := uint64(0); x < uint64(1)<<uint(n); x++ {
		if _, st := a.EvalDrive(x); st != Driven {
			return false
		}
	}
	return true
}

// String renders both planes.
func (a *FETArray) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FET array: %d input rows, %d N-columns (f), %d P-columns (f^D)\n",
		a.NumRows(), len(a.FProducts), len(a.DProducts))
	for _, l := range a.Rows {
		fmt.Fprintf(&sb, "%4s:", l.String())
		for _, p := range a.FProducts {
			if p.HasLiteral(l.Var, l.Neg) {
				sb.WriteString("  N")
			} else {
				sb.WriteString("  .")
			}
		}
		sb.WriteString(" |")
		for _, q := range a.DProducts {
			if q.HasLiteral(l.Var, l.Neg) {
				sb.WriteString("  P")
			} else {
				sb.WriteString("  .")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// coverLiterals lists the distinct literals of a cover in ascending
// (variable, polarity) order.
func coverLiterals(cv cube.Cover) []cube.Lit {
	pos, neg := cv.LiteralMasks()
	var ls []cube.Lit
	for v := 0; v < 64; v++ {
		if pos>>uint(v)&1 == 1 {
			ls = append(ls, cube.Lit{Var: v})
		}
		if neg>>uint(v)&1 == 1 {
			ls = append(ls, cube.Lit{Var: v, Neg: true})
		}
	}
	return ls
}
