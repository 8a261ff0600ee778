package qm

import (
	"math/rand"
	"slices"
	"testing"

	"nanoxbar/internal/truthtab"
)

// TestPrimesMatchReference pins the quantification generator to the
// sort-based frontier it replaced: the same primes in the same order,
// and the same MaxPrimes decision, over random incompletely specified
// functions of 1–10 variables.
func TestPrimesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	limited, rejected := 0, 0
	for i := 0; i < 3200; i++ {
		n := 1 + i%10
		onDensity := rng.Float64()
		dcDensity := 0.3 * rng.Float64()
		on, dc := truthtab.New(n), truthtab.New(n)
		for a := uint64(0); a < on.Size(); a++ {
			switch r := rng.Float64(); {
			case r < dcDensity:
				dc.SetBit(a, true)
			case r < dcDensity+(1-dcDensity)*onDensity:
				on.SetBit(a, true)
			}
		}
		o := DefaultOptions()
		if i%7 == 6 {
			o.MaxPrimes = 1 + rng.Intn(60)
			limited++
		}
		got, gotErr := Primes(on, dc, o)
		want, wantErr := primesReference(on, dc, o)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d (n=%d on=%v dc=%v MaxPrimes=%d): err %v, reference err %v", i, n, on, dc, o.MaxPrimes, gotErr, wantErr)
		}
		if gotErr != nil {
			rejected++
		}
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d on=%v dc=%v): primes %v, reference %v", i, n, on, dc, got, want)
		}
	}
	// The limited cases must exercise both sides of the decision.
	if rejected == 0 || rejected == limited {
		t.Fatalf("%d of %d MaxPrimes-limited cases rejected: the limit is not being exercised", rejected, limited)
	}
	t.Logf("%d of %d MaxPrimes-limited cases rejected", rejected, limited)
}
