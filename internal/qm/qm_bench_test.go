package qm

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/truthtab"
)

func benchFunc(n int, seed int64) truthtab.TT {
	rng := rand.New(rand.NewSource(seed))
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

func BenchmarkPrimes6Var(b *testing.B) {
	f := benchFunc(6, 1)
	z := truthtab.Zero(6)
	for i := 0; i < b.N; i++ {
		if _, err := Primes(f, z, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimes10Var is a dense 10-variable function: 16 table words
// per quantification level, where the word-wide prime test pays off.
func BenchmarkPrimes10Var(b *testing.B) {
	f := benchFunc(10, 1)
	z := truthtab.Zero(10)
	for i := 0; i < b.N; i++ {
		if _, err := Primes(f, z, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimize6Var(b *testing.B) {
	f := benchFunc(6, 2)
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTT(f, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeMaj7(b *testing.B) {
	f := truthtab.FromFunc(7, func(a uint64) bool {
		c := 0
		for v := 0; v < 7; v++ {
			c += int(a >> uint(v) & 1)
		}
		return c >= 4
	})
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTT(f, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
