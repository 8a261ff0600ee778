package bexpr

import (
	"testing"

	"nanoxbar/internal/truthtab"
)

// FuzzParseTT feeds ParseTT arbitrary strings, as the v2 API does with
// every "expr" function spec it receives. ParseTT must never panic,
// every expression it accepts must elaborate over exactly the variables
// it mentions (and no more than truthtab.MaxVars of them), and the
// rendered expression must parse back to the same table. The seed
// corpus is in testdata/fuzz/FuzzParseTT.
func FuzzParseTT(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		if err != nil {
			if _, _, err := ParseTT(s); err == nil {
				t.Fatalf("ParseTT(%q) accepts what Parse rejects", s)
			}
			return
		}
		n := e.MaxVar()
		if n > truthtab.MaxVars {
			t.Fatalf("Parse(%q) accepted %d variables, limit %d", s, n, truthtab.MaxVars)
		}
		// Elaboration holds one 2^n-bit table per open subterm; keep
		// each fuzz worker small by elaborating long wide inputs only
		// as far as the parse.
		if len(s) > 64 && n > 12 {
			return
		}
		tt, got, err := ParseTT(s)
		if err != nil {
			t.Fatalf("ParseTT(%q): %v", s, err)
		}
		if got != n || tt.NumVars() != n {
			t.Fatalf("ParseTT(%q) = %d vars (table %d), want MaxVar %d", s, got, tt.NumVars(), n)
		}
		str := e.String()
		again, gotAgain, err := ParseTT(str)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, str, err)
		}
		if gotAgain != n || !again.Equal(tt) {
			t.Fatalf("Parse(%q) renders as %q, which elaborates differently", s, str)
		}
	})
}
