package xbar2t

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/qm"
	"nanoxbar/internal/truthtab"
)

func covers(t *testing.T, f truthtab.TT) (cube.Cover, cube.Cover) {
	t.Helper()
	fc, err := qm.MinimizeTT(f, qm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := qm.MinimizeTT(f.Dual(), qm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return fc, dc
}

func randTT(n int, rng *rand.Rand) truthtab.TT {
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

func TestPaperFig3And5Examples(t *testing.T) {
	// §III-A: f = x1x2 + x1'x2' → diode 2×5, FET 4×4; §III-B → lattice 2×2.
	f := truthtab.FromMinterms(2, []uint64{0, 3})
	fc, dc := covers(t, f)
	s := FormulaSizes(fc, dc)
	if s.DiodeRows != 2 || s.DiodeCols != 5 {
		t.Fatalf("diode %d×%d, want 2×5", s.DiodeRows, s.DiodeCols)
	}
	if s.FETRows != 4 || s.FETCols != 4 {
		t.Fatalf("FET %d×%d, want 4×4", s.FETRows, s.FETCols)
	}
	if s.LatticeRows != 2 || s.LatticeCols != 2 {
		t.Fatalf("lattice %d×%d, want 2×2", s.LatticeRows, s.LatticeCols)
	}
	if s.DiodeArea() != 10 || s.FETArea() != 16 {
		t.Fatal("areas wrong")
	}
}

func TestDiodeArrayFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(5)
		f := randTT(n, rng)
		fc, _ := covers(t, f)
		a := NewDiodeArray(fc)
		if !a.Function(n).Equal(f) {
			t.Fatalf("diode array computes wrong function for %v", f)
		}
		if a.Rows() != len(fc) || a.Cols() != fc.DistinctLiterals()+1 {
			t.Fatalf("diode shape %d×%d", a.Rows(), a.Cols())
		}
	}
}

func TestDiodeEmptyAndUniverse(t *testing.T) {
	// Constant 0: no products.
	a := NewDiodeArray(cube.Cover{})
	if a.Eval(0) || a.Rows() != 0 {
		t.Fatal("empty cover")
	}
	// Universe cube row: conducts for every input.
	u := NewDiodeArray(cube.Cover{cube.Universe})
	if !u.Eval(0) || !u.Eval(7) {
		t.Fatal("universe row")
	}
}

func TestFETArrayFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(5)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		fc, dc := covers(t, f)
		a := NewFETArray(fc, dc)
		if !a.WellFormed(n) {
			t.Fatalf("FET array not always driven for %v", f)
		}
		if !a.Function(n).Equal(f) {
			t.Fatalf("FET array computes wrong function for %v", f)
		}
		if a.NumCols() != len(fc)+len(dc) {
			t.Fatal("FET column count")
		}
	}
}

func TestFETComplementaryNeverConflicts(t *testing.T) {
	// The dual-pair structure guarantees exactly one plane conducts.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(4)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		fc, dc := covers(t, f)
		a := NewFETArray(fc, dc)
		for x := uint64(0); x < uint64(1)<<uint(n); x++ {
			if _, st := a.EvalDrive(x); st != Driven {
				t.Fatalf("state %v at %b for %v", st, x, f)
			}
		}
	}
}

func TestFETMalformedDetected(t *testing.T) {
	// Pairing f with a non-dual plane must float or conflict somewhere.
	fc, _, _ := cube.ParseSOP("x1")
	wrong, _, _ := cube.ParseSOP("x1") // dual of x1 is x1; use x2 to break it
	wrong[0] = cube.FromLiteral(1, false)
	a := NewFETArray(fc, wrong)
	if a.WellFormed(2) {
		t.Fatal("malformed pairing should not be well formed")
	}
}

func TestFormulaMonotonicProducts(t *testing.T) {
	// More products must never shrink the formula sizes.
	f1, _, _ := cube.ParseSOP("x1x2")
	f2, _, _ := cube.ParseSOP("x1x2 + x3x4")
	d, _, _ := cube.ParseSOP("x1 + x2")
	s1 := FormulaSizes(f1, d)
	s2 := FormulaSizes(f2, d)
	if s2.DiodeArea() <= s1.DiodeArea() || s2.FETCols <= s1.FETCols {
		t.Fatal("formula not monotone in products")
	}
}

func TestDiodeString(t *testing.T) {
	fc, _, _ := cube.ParseSOP("x1x2 + x1'x2'")
	s := NewDiodeArray(fc).String()
	if len(s) == 0 || s[0] != 'd' {
		t.Fatalf("rendering: %q", s)
	}
}

func TestFETString(t *testing.T) {
	f := truthtab.FromMinterms(2, []uint64{0, 3})
	fc, dc := covers(t, f)
	s := NewFETArray(fc, dc).String()
	if len(s) == 0 {
		t.Fatal("empty rendering")
	}
}
