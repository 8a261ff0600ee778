// Package cube implements cubes (product terms) and covers (sums of
// products) over up to 64 Boolean variables, together with the cube
// algebra needed by the two-level minimizers and the lattice synthesizer:
// containment, intersection, shared literals, absorption, and conversions
// to and from truth tables.
//
// A cube stores its literals in two bit masks: bit v of Pos means the
// positive literal x_v occurs, bit v of Neg means the complemented
// literal x_v' occurs. The empty cube (no literals) is the constant-1
// product; a cube with Pos∧Neg ≠ 0 is contradictory (constant 0).
package cube

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"nanoxbar/internal/truthtab"
)

// Cube is a product of literals over variables 0..63.
type Cube struct {
	Pos uint64 // variables appearing as positive literals
	Neg uint64 // variables appearing as complemented literals
}

// Universe is the empty product, the constant-1 cube.
var Universe = Cube{}

// FromLiteral returns the single-literal cube x_v or x_v'.
func FromLiteral(v int, neg bool) Cube {
	if neg {
		return Cube{Neg: 1 << uint(v)}
	}
	return Cube{Pos: 1 << uint(v)}
}

// IsContradiction reports whether the cube contains both x_v and x_v'.
func (c Cube) IsContradiction() bool { return c.Pos&c.Neg != 0 }

// IsUniverse reports whether the cube has no literals (constant 1).
func (c Cube) IsUniverse() bool { return c.Pos == 0 && c.Neg == 0 }

// NumLiterals returns the number of literals in the cube.
func (c Cube) NumLiterals() int {
	return bits.OnesCount64(c.Pos) + bits.OnesCount64(c.Neg)
}

// HasLiteral reports whether literal (v, neg) occurs in c.
func (c Cube) HasLiteral(v int, neg bool) bool {
	if neg {
		return c.Neg>>uint(v)&1 == 1
	}
	return c.Pos>>uint(v)&1 == 1
}

// Eval reports whether the cube is satisfied by assignment a (bit v of a
// is the value of variable v).
func (c Cube) Eval(a uint64) bool {
	return c.Pos&^a == 0 && c.Neg&a == 0
}

// Contains reports whether c ⊇ d as sets of minterms, i.e. every literal
// of c also occurs in d.
func (c Cube) Contains(d Cube) bool {
	return c.Pos&^d.Pos == 0 && c.Neg&^d.Neg == 0
}

// Intersect returns the conjunction of two cubes and whether it is
// non-contradictory.
func (c Cube) Intersect(d Cube) (Cube, bool) {
	r := Cube{Pos: c.Pos | d.Pos, Neg: c.Neg | d.Neg}
	return r, !r.IsContradiction()
}

// CommonLiterals returns the literals shared by c and d as a cube.
func (c Cube) CommonLiterals(d Cube) Cube {
	return Cube{Pos: c.Pos & d.Pos, Neg: c.Neg & d.Neg}
}

// Literals returns the cube's literals as (variable, negated) pairs in
// ascending variable order.
func (c Cube) Literals() []Lit {
	var ls []Lit
	for v := 0; v < 64; v++ {
		if c.Pos>>uint(v)&1 == 1 {
			ls = append(ls, Lit{Var: v})
		}
		if c.Neg>>uint(v)&1 == 1 {
			ls = append(ls, Lit{Var: v, Neg: true})
		}
	}
	return ls
}

// Lit is a single literal: variable index plus polarity.
type Lit struct {
	Var int
	Neg bool
}

// String renders a literal in paper notation: x1, x3', … (1-indexed).
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("x%d'", l.Var+1)
	}
	return fmt.Sprintf("x%d", l.Var+1)
}

// ToTT expands the cube to an n-variable truth table.
func (c Cube) ToTT(n int) truthtab.TT {
	if c.IsContradiction() {
		return truthtab.Zero(n)
	}
	t := truthtab.One(n)
	for v := 0; v < n; v++ {
		if c.Pos>>uint(v)&1 == 1 {
			t = t.And(truthtab.Var(n, v))
		}
		if c.Neg>>uint(v)&1 == 1 {
			t = t.And(truthtab.Var(n, v).Not())
		}
	}
	return t
}

// String renders the cube in paper notation, e.g. "x1x2'" ("1" for the
// universe, "0" for a contradiction).
func (c Cube) String() string {
	if c.IsContradiction() {
		return "0"
	}
	if c.IsUniverse() {
		return "1"
	}
	var sb strings.Builder
	for _, l := range c.Literals() {
		sb.WriteString(l.String())
	}
	return sb.String()
}

// Cover is a sum of products.
type Cover []Cube

// Eval reports the cover's value at assignment a.
func (cv Cover) Eval(a uint64) bool {
	for _, c := range cv {
		if c.Eval(a) {
			return true
		}
	}
	return false
}

// ToTT expands the cover to an n-variable truth table.
func (cv Cover) ToTT(n int) truthtab.TT {
	t := truthtab.Zero(n)
	for _, c := range cv {
		t = t.Or(c.ToTT(n))
	}
	return t
}

// NumProducts returns the number of cubes (SOP products).
func (cv Cover) NumProducts() int { return len(cv) }

// TotalLiterals returns the summed literal count across all cubes.
func (cv Cover) TotalLiterals() int {
	n := 0
	for _, c := range cv {
		n += c.NumLiterals()
	}
	return n
}

// DistinctLiterals returns the number of distinct literals appearing in
// the cover, counting x_v and x_v' separately. This is the "number of
// literals in f" of the paper's Fig. 3 size formulas.
func (cv Cover) DistinctLiterals() int {
	var pos, neg uint64
	for _, c := range cv {
		pos |= c.Pos
		neg |= c.Neg
	}
	return bits.OnesCount64(pos) + bits.OnesCount64(neg)
}

// LiteralMasks returns the union of positive and negative literal masks.
func (cv Cover) LiteralMasks() (pos, neg uint64) {
	for _, c := range cv {
		pos |= c.Pos
		neg |= c.Neg
	}
	return pos, neg
}

// Support returns the variables used by the cover, ascending.
func (cv Cover) Support() []int {
	pos, neg := cv.LiteralMasks()
	m := pos | neg
	var s []int
	for v := 0; v < 64; v++ {
		if m>>uint(v)&1 == 1 {
			s = append(s, v)
		}
	}
	return s
}

// Clone returns an independent copy of the cover.
func (cv Cover) Clone() Cover {
	r := make(Cover, len(cv))
	copy(r, cv)
	return r
}

// Absorb removes cubes contained in another cube of the cover
// (single-cube containment) and exact duplicates. The result is sorted.
func (cv Cover) Absorb() Cover {
	var r Cover
	for i, c := range cv {
		if c.IsContradiction() {
			continue
		}
		absorbed := false
		for j, d := range cv {
			if i == j || d.IsContradiction() {
				continue
			}
			if d.Contains(c) && (!c.Contains(d) || j < i) {
				// c is strictly inside d, or duplicate kept once.
				absorbed = true
				break
			}
		}
		if !absorbed {
			r = append(r, c)
		}
	}
	r.Sort()
	return r
}

// Sort orders cubes deterministically (by Pos, then Neg).
func (cv Cover) Sort() {
	sort.Slice(cv, func(i, j int) bool {
		if cv[i].Pos != cv[j].Pos {
			return cv[i].Pos < cv[j].Pos
		}
		return cv[i].Neg < cv[j].Neg
	})
}

// String renders the cover in paper notation, e.g. "x1x2 + x1'x2'".
func (cv Cover) String() string {
	if len(cv) == 0 {
		return "0"
	}
	parts := make([]string, len(cv))
	for i, c := range cv {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}

// IsImplicant reports whether cube c implies the function f (every
// minterm of c is in f's on-set).
func IsImplicant(c Cube, f truthtab.TT) bool {
	return c.ToTT(f.NumVars()).Implies(f)
}

// IsCoverOf reports whether the cover equals f exactly.
func IsCoverOf(cv Cover, f truthtab.TT) bool {
	return cv.ToTT(f.NumVars()).Equal(f)
}
