package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// goldenSynthesisDigest is the sha256 over every implementation that
// TestSynthesisGoldenDigest synthesizes. It pins the synthVersion
// contract: persisted snapshots and peer caches are keyed on
// synthVersion, so synthesis output may change only together with a
// version bump, and then this constant is re-recorded in the same
// change.
const goldenSynthesisDigest = "fd6df5a85bb7035c54f15723facda783de4cf5c41a5133bebd28460bdb3f12f8"

// TestSynthesisGoldenDigest synthesizes the named suite functions and a
// fixed seeded set of random functions of 1–7 inputs on every
// technology and hashes rows, columns, method, both covers and the
// lattice of each result.
func TestSynthesisGoldenDigest(t *testing.T) {
	if synthVersion != 1 {
		t.Fatalf("synthVersion = %d: re-record goldenSynthesisDigest for the new version", synthVersion)
	}
	var fs []truthtab.TT
	for _, s := range benchfn.Suite() {
		fs = append(fs, s.F)
	}
	rng := rand.New(rand.NewSource(20170327))
	for i := 0; i < 320; i++ {
		// Seven-input syntheses cost ~100x a six-input one, so one
		// function in forty is seven-input.
		n := 1 + i%6
		if i%40 == 39 {
			n = 7
		}
		density := 0.15 + 0.7*rng.Float64()
		f := truthtab.New(n)
		for a := uint64(0); a < f.Size(); a++ {
			if rng.Float64() < density {
				f.SetBit(a, true)
			}
		}
		fs = append(fs, f)
	}
	h := sha256.New()
	opts := DefaultOptions()
	for _, f := range fs {
		for _, tech := range []Technology{Diode, FET, FourTerminal} {
			im, err := Synthesize(f, tech, opts)
			if err != nil {
				fmt.Fprintf(h, "%v %v error %v\n", f, tech, err)
				continue
			}
			writeImplementation(h, f, im)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenSynthesisDigest {
		t.Fatalf("synthesis digest over %d functions = %s, want %s: synthesis output changed without a synthVersion bump", len(fs), got, goldenSynthesisDigest)
	}
}

func writeImplementation(h hash.Hash, f truthtab.TT, im *Implementation) {
	fmt.Fprintf(h, "%v %v %dx%d %s\n", f, im.Tech, im.Rows, im.Cols, im.Method)
	writeCover(h, "f", im.FCover)
	writeCover(h, "d", im.DualCover)
	if l := im.Lattice; l != nil {
		fmt.Fprintf(h, "L %dx%d", l.R, l.C)
		for r := 0; r < l.R; r++ {
			for c := 0; c < l.C; c++ {
				fmt.Fprintf(h, " %v", l.At(r, c))
			}
		}
		fmt.Fprintln(h)
	}
}

func writeCover(h hash.Hash, tag string, cv cube.Cover) {
	fmt.Fprintf(h, "%s %d", tag, len(cv))
	for _, c := range cv {
		fmt.Fprintf(h, " %x/%x", c.Pos, c.Neg)
	}
	fmt.Fprintln(h)
}
