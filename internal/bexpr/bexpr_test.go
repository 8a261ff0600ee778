package bexpr

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/truthtab"
)

func parseTT(t *testing.T, s string) truthtab.TT {
	t.Helper()
	tt, _, err := ParseTT(s)
	if err != nil {
		t.Fatalf("ParseTT(%q): %v", s, err)
	}
	return tt
}

func TestBasicForms(t *testing.T) {
	xnor := parseTT(t, "x1x2 + x1'x2'")
	want := truthtab.FromMinterms(2, []uint64{0, 3})
	if !xnor.Equal(want) {
		t.Fatal("xnor wrong")
	}
	if !parseTT(t, "x1 ^ x2").Equal(want.Not()) {
		t.Fatal("xor wrong")
	}
}

func TestEquivalentSpellings(t *testing.T) {
	forms := []string{
		"x1x2' + x3",
		"x1 * x2' + x3",
		"(x1)(x2') + x3",
		"!(!x1 + x2)+x3",
		"x1(x2)' + x3",
	}
	ref := parseTT(t, forms[0])
	for _, f := range forms[1:] {
		e, err := Parse(f)
		if err != nil {
			t.Fatalf("%q: %v", f, err)
		}
		tt, err := e.TT(3)
		if err != nil {
			t.Fatal(err)
		}
		if !tt.Equal(ref) {
			t.Fatalf("%q differs from reference", f)
		}
	}
}

func TestPrecedence(t *testing.T) {
	// AND binds tighter than XOR binds tighter than OR.
	f := parseTT(t, "x1 + x2 x3")
	want := truthtab.Var(3, 0).Or(truthtab.Var(3, 1).And(truthtab.Var(3, 2)))
	if !f.Equal(want) {
		t.Fatal("AND/OR precedence")
	}
	g := parseTT(t, "x1 ^ x2 + x3")
	wantG := truthtab.Var(3, 0).Xor(truthtab.Var(3, 1)).Or(truthtab.Var(3, 2))
	if !g.Equal(wantG) {
		t.Fatal("XOR/OR precedence")
	}
}

func TestConstants(t *testing.T) {
	if !parseTT(t, "0").IsZero() {
		t.Fatal("0")
	}
	if !parseTT(t, "1").IsOne() {
		t.Fatal("1")
	}
	// x + 1 = 1
	e, err := Parse("x1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := e.TT(1)
	if !tt.IsOne() {
		t.Fatal("x1+1 != 1")
	}
}

func TestDoubleComplement(t *testing.T) {
	f := parseTT(t, "x1''")
	if !f.Equal(truthtab.Var(1, 0)) {
		t.Fatal("x1'' != x1")
	}
}

func TestFig4Expression(t *testing.T) {
	f := parseTT(t, "x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	if f.NumVars() != 6 {
		t.Fatalf("vars = %d", f.NumVars())
	}
	// Spot checks from the caption SOP.
	if !f.Bit(0b000111) { // x1x2x3
		t.Fatal("missing x1x2x3 minterm")
	}
	if !f.Bit(0b111000) { // x4x5x6
		t.Fatal("missing x4x5x6 minterm")
	}
	if f.Bit(0) {
		t.Fatal("constant term crept in")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"", "x", "x0", "+x1", "x1+", "x1 & x2", "(x1", "x1)", "x1 ** x2",
		"!", "x1'''(", "y1",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) should fail", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exprs := []string{
		"x1x2 + x1'x2'",
		"x1 ^ x2 + x3",
		"(x1 + x2)x3'",
		"x1x2x3 + x4x5x6",
		"1",
		"0",
	}
	_ = rng
	for _, s := range exprs {
		e, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", e.String(), s, err)
		}
		n := e.MaxVar()
		if n == 0 {
			n = 1
		}
		t1, _ := e.TT(n)
		t2, _ := e2.TT(n)
		if !t1.Equal(t2) {
			t.Fatalf("String round trip changed %q", s)
		}
	}
}

func TestMaxVar(t *testing.T) {
	e, err := Parse("x3 + x7'")
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxVar() != 7 {
		t.Fatalf("MaxVar = %d", e.MaxVar())
	}
	if _, err := e.TT(3); err == nil {
		t.Fatal("TT with too few vars must fail")
	}
}
