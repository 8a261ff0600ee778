package cube

import "testing"

// FuzzParsePLA feeds ParsePLA arbitrary text, as cmd/latsynth does with
// every PLA file it is handed. ParsePLA must never panic, and a PLA it
// accepts must carry one cover per declared output and mention no
// variable past its declared input count. The seed corpus is in
// testdata/fuzz/FuzzParsePLA.
func FuzzParsePLA(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePLA(text)
		if err != nil {
			return
		}
		if len(p.Covers) != p.Outputs {
			t.Fatalf("ParsePLA(%q): %d covers for %d outputs", text, len(p.Covers), p.Outputs)
		}
		for o, cv := range p.Covers {
			for _, c := range cv {
				if (c.Pos|c.Neg)>>uint(p.Inputs) != 0 {
					t.Fatalf("ParsePLA(%q): output %d cube %v uses a variable past .i %d", text, o, c, p.Inputs)
				}
			}
		}
	})
}
