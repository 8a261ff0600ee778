package truthtab

import "testing"

// FuzzParse feeds Parse arbitrary strings, as the v2 API does with every
// "tt" function spec it receives. Parse must never panic, and every
// table it accepts must survive String → Parse unchanged, with String
// already in its canonical form. The seed corpus is in
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tt, err := Parse(s)
		if err != nil {
			return
		}
		str := tt.String()
		again, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q) accepted as %q, which does not parse: %v", s, str, err)
		}
		if again.NumVars() != tt.NumVars() || !again.Equal(tt) {
			t.Fatalf("Parse(%q) = %q, round trip gives %q", s, str, again.String())
		}
		if again.String() != str {
			t.Fatalf("String is not canonical: %q re-renders as %q", str, again.String())
		}
	})
}
