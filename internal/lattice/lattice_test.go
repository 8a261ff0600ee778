package lattice

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// fig4 builds the paper's Fig. 4 lattice: 3 rows × 2 columns, first
// column x1,x2,x3, second column x4,x5,x6.
func fig4() *Lattice {
	l := New(3, 2)
	l.Set(0, 0, Lit(0, false))
	l.Set(1, 0, Lit(1, false))
	l.Set(2, 0, Lit(2, false))
	l.Set(0, 1, Lit(3, false))
	l.Set(1, 1, Lit(4, false))
	l.Set(2, 1, Lit(5, false))
	return l
}

func fig4Function(t *testing.T) truthtab.TT {
	t.Helper()
	cv, _, err := cube.ParseSOP("x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	if err != nil {
		t.Fatal(err)
	}
	return cv.ToTT(6)
}

func TestFig4Lattice(t *testing.T) {
	l := fig4()
	want := fig4Function(t)
	if !l.Implements(want) {
		t.Fatalf("Fig.4 lattice computes %v, want %v", l.Function(6), want)
	}
}

func TestFig4Paths(t *testing.T) {
	l := fig4()
	paths, err := l.Paths(10000)
	if err != nil {
		t.Fatal(err)
	}
	// After absorption exactly the caption's four products remain.
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	if !paths.ToTT(6).Equal(fig4Function(t)) {
		t.Fatal("path cover differs from lattice function")
	}
}

func TestSiteOn(t *testing.T) {
	if (Site{Kind: Const0}).On(0xff) || !(Site{Kind: Const1}).On(0) {
		t.Fatal("constant sites")
	}
	s := Lit(2, false)
	if !s.On(0b100) || s.On(0b011) {
		t.Fatal("positive literal")
	}
	ns := Lit(2, true)
	if ns.On(0b100) || !ns.On(0b011) {
		t.Fatal("negative literal")
	}
}

func TestSingleSiteLattices(t *testing.T) {
	l := Constant(true)
	if !l.Function(1).IsOne() {
		t.Fatal("constant-1 lattice")
	}
	if !l.DualFunction(1).IsZero() {
		t.Fatal("dual of constant 1 must be 0")
	}
	z := Constant(false)
	if !z.Function(1).IsZero() {
		t.Fatal("constant-0 lattice")
	}
	if !z.DualFunction(1).IsOne() {
		t.Fatal("dual of constant 0 must be 1")
	}
	x := New(1, 1)
	x.Set(0, 0, Lit(0, false))
	if !x.Function(1).Equal(truthtab.Var(1, 0)) {
		t.Fatal("1×1 literal lattice")
	}
	if !x.DualFunction(1).Equal(truthtab.Var(1, 0)) {
		t.Fatal("dual of x is x")
	}
}

func TestColumnIsAnd(t *testing.T) {
	// Column of x1,x2,x3 computes the product.
	l := New(3, 1)
	for i := 0; i < 3; i++ {
		l.Set(i, 0, Lit(i, false))
	}
	want := truthtab.Var(3, 0).And(truthtab.Var(3, 1)).And(truthtab.Var(3, 2))
	if !l.Implements(want) {
		t.Fatal("column lattice is not AND")
	}
}

func TestRowIsOr(t *testing.T) {
	l := New(1, 3)
	for j := 0; j < 3; j++ {
		l.Set(0, j, Lit(j, false))
	}
	want := truthtab.Var(3, 0).Or(truthtab.Var(3, 1)).Or(truthtab.Var(3, 2))
	if !l.Implements(want) {
		t.Fatal("row lattice is not OR")
	}
}

func Test2x2AllDistinct(t *testing.T) {
	// [x1 x2; x3 x4]: f = x1x3 + x2x4 (zigzags absorbed).
	l := New(2, 2)
	l.Set(0, 0, Lit(0, false))
	l.Set(0, 1, Lit(1, false))
	l.Set(1, 0, Lit(2, false))
	l.Set(1, 1, Lit(3, false))
	want, _, _ := cube.ParseSOP("x1x3 + x2x4")
	if !l.Implements(want.ToTT(4)) {
		t.Fatalf("2x2 function = %v", l.Function(4))
	}
	// Dual reading must include the 8-connected diagonals:
	// (x1+x3)(x2+x4) = x1x2 + x1x4 + x2x3 + x3x4.
	wantD, _, _ := cube.ParseSOP("x1x2 + x1x4 + x2x3 + x3x4")
	if !l.DualFunction(4).Equal(wantD.ToTT(4)) {
		t.Fatalf("2x2 dual = %v", l.DualFunction(4))
	}
}

func randLattice(r, c, n int, rng *rand.Rand) *Lattice {
	l := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			switch rng.Intn(8) {
			case 0:
				l.Set(i, j, Site{Kind: Const0})
			case 1:
				l.Set(i, j, Site{Kind: Const1})
			default:
				l.Set(i, j, Lit(rng.Intn(n), rng.Intn(2) == 1))
			}
		}
	}
	return l
}

func TestDualityProperty(t *testing.T) {
	// For arbitrary lattices (constants included): the LR 8-connected
	// reading equals the Boolean dual of the TB function.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 150; i++ {
		n := 1 + rng.Intn(4)
		l := randLattice(1+rng.Intn(4), 1+rng.Intn(4), n, rng)
		if !l.DualFunction(n).Equal(l.Function(n).Dual()) {
			t.Fatalf("duality violated for lattice\n%v", l)
		}
		if !scalarFunction(l, n, true).Equal(scalarFunction(l, n, false).Dual()) {
			t.Fatalf("scalar walk violates duality for lattice\n%v", l)
		}
	}
}

func TestPathsMatchFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(4)
		l := randLattice(1+rng.Intn(3), 1+rng.Intn(3), n, rng)
		paths, err := l.Paths(100000)
		if err != nil {
			t.Fatal(err)
		}
		if !paths.ToTT(n).Equal(l.Function(n)) {
			t.Fatalf("paths %v != function for\n%v", paths, l)
		}
	}
}

func TestPathsLimit(t *testing.T) {
	// A dense all-Const1 lattice has exponentially many simple paths.
	l := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			l.Set(i, j, Site{Kind: Const1})
		}
	}
	if _, err := l.Paths(3); err == nil {
		t.Fatal("expected limit error")
	}
}

func TestOrComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(4)
		a := randLattice(1+rng.Intn(3), 1+rng.Intn(3), n, rng)
		b := randLattice(1+rng.Intn(3), 1+rng.Intn(3), n, rng)
		or := Or(a, b)
		want := a.Function(n).Or(b.Function(n))
		if !or.Implements(want) {
			t.Fatalf("Or composition wrong:\nA=\n%vB=\n%vOr=\n%v", a, b, or)
		}
		if or.R != max(a.R, b.R) || or.C != a.C+1+b.C {
			t.Fatalf("Or shape %d×%d", or.R, or.C)
		}
	}
}

func TestAndComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(4)
		a := randLattice(1+rng.Intn(3), 1+rng.Intn(3), n, rng)
		b := randLattice(1+rng.Intn(3), 1+rng.Intn(3), n, rng)
		and := And(a, b)
		want := a.Function(n).And(b.Function(n))
		if !and.Implements(want) {
			t.Fatalf("And composition wrong:\nA=\n%vB=\n%vAnd=\n%v", a, b, and)
		}
		if and.C != max(a.C, b.C) || and.R != a.R+1+b.R {
			t.Fatalf("And shape %d×%d", and.R, and.C)
		}
	}
}

func TestFromCube(t *testing.T) {
	c := cube.Cube{Pos: 0b101, Neg: 0b010} // x1x2'x3
	l := FromCube(c)
	if l.R != 3 || l.C != 1 {
		t.Fatalf("shape %d×%d", l.R, l.C)
	}
	if !l.Implements(c.ToTT(3)) {
		t.Fatal("FromCube function wrong")
	}
	u := FromCube(cube.Universe)
	if !u.Function(1).IsOne() {
		t.Fatal("universe cube lattice")
	}
	bad := FromCube(cube.Cube{Pos: 1, Neg: 1})
	if !bad.Function(1).IsZero() {
		t.Fatal("contradiction cube lattice")
	}
}

func TestOrAllAndAll(t *testing.T) {
	n := 3
	ls := make([]*Lattice, n)
	for i := range ls {
		ls[i] = FromCube(cube.FromLiteral(i, false))
	}
	or := OrAll(ls...)
	if !or.Implements(truthtab.Var(n, 0).Or(truthtab.Var(n, 1)).Or(truthtab.Var(n, 2))) {
		t.Fatal("OrAll wrong")
	}
	and := AndAll(ls...)
	if !and.Implements(truthtab.Var(n, 0).And(truthtab.Var(n, 1)).And(truthtab.Var(n, 2))) {
		t.Fatal("AndAll wrong")
	}
}

func TestQuickComposition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		a := randLattice(1+rng.Intn(2), 1+rng.Intn(3), n, rng)
		b := randLattice(1+rng.Intn(3), 1+rng.Intn(2), n, rng)
		fa, fb := a.Function(n), b.Function(n)
		return Or(a, b).Implements(fa.Or(fb)) && And(a, b).Implements(fa.And(fb))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := fig4().String()
	if !strings.Contains(s, "TOP") || !strings.Contains(s, "BOTTOM") {
		t.Fatal("missing plate markers")
	}
	if !strings.Contains(s, "x1") || !strings.Contains(s, "x6") {
		t.Fatalf("missing sites:\n%s", s)
	}
}

func TestMaxVar(t *testing.T) {
	if fig4().MaxVar() != 6 {
		t.Fatal("MaxVar")
	}
	if Constant(true).MaxVar() != 0 {
		t.Fatal("MaxVar of constant")
	}
}

func TestCloneIndependent(t *testing.T) {
	l := fig4()
	c := l.Clone()
	c.Set(0, 0, Site{Kind: Const0})
	if l.At(0, 0).Kind == Const0 {
		t.Fatal("clone aliases original")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestDeleteRowColFrom(t *testing.T) {
	// Site (r, c) of src holds variable 4r+c, so every copied site
	// names where it came from.
	src := New(3, 4)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			src.Set(r, c, Lit(4*r+c, false))
		}
	}
	before := src.String()
	var scratch Lattice // one receiver reused across shrinking and growing shapes
	for row := 0; row < 3; row++ {
		scratch.DeleteRowFrom(src, row)
		if scratch.R != 2 || scratch.C != 4 || len(scratch.sites) != 8 {
			t.Fatalf("row %d: shape %d×%d with %d sites", row, scratch.R, scratch.C, len(scratch.sites))
		}
		for r := 0; r < 2; r++ {
			sr := r
			if r >= row {
				sr++
			}
			for c := 0; c < 4; c++ {
				if got := scratch.At(r, c).Var; got != 4*sr+c {
					t.Fatalf("without row %d: site (%d,%d) = x%d, want x%d", row, r, c, got+1, 4*sr+c+1)
				}
			}
		}
	}
	for col := 0; col < 4; col++ {
		scratch.DeleteColFrom(src, col)
		if scratch.R != 3 || scratch.C != 3 || len(scratch.sites) != 9 {
			t.Fatalf("col %d: shape %d×%d with %d sites", col, scratch.R, scratch.C, len(scratch.sites))
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				sc := c
				if c >= col {
					sc++
				}
				if got := scratch.At(r, c).Var; got != 4*r+sc {
					t.Fatalf("without col %d: site (%d,%d) = x%d, want x%d", col, r, c, got+1, 4*r+sc+1)
				}
			}
		}
	}
	if src.String() != before {
		t.Fatal("deleting into a scratch lattice modified the source")
	}
}
