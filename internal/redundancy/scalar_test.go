package redundancy

// The scalar transient-upset model: one graph walk per trial and per
// redundant copy. Production Monte Carlo runs on MC; the property tests
// and benchmarks compare it against this reference.

import (
	"fmt"
	"math/rand"

	"nanoxbar/internal/lattice"
)

// TransientEval evaluates the lattice at assignment a with each site's
// switch state flipped independently with probability p — the
// single-evaluation transient upset model. It is the scalar reference
// for MC.TransientEval64.
func TransientEval(l *lattice.Lattice, a uint64, p float64, rng *rand.Rand) bool {
	flipped := make([]bool, l.R*l.C)
	any := false
	for i := range flipped {
		if rng.Float64() < p {
			flipped[i] = true
			any = true
		}
	}
	if !any {
		return l.Eval(a)
	}
	return evalFlipped(l, a, flipped)
}

// evalFlipped evaluates l at a with the chosen sites inverted. An
// inverted site is itself a site — a literal of the opposite polarity,
// or the other constant — so the flipped lattice goes through the
// lattice's own walk.
func evalFlipped(l *lattice.Lattice, a uint64, flipped []bool) bool {
	fl := l.Clone()
	for i, f := range flipped {
		if !f {
			continue
		}
		r, c := i/l.C, i%l.C
		s := fl.At(r, c)
		switch s.Kind {
		case lattice.Const0:
			s.Kind = lattice.Const1
		case lattice.Const1:
			s.Kind = lattice.Const0
		default:
			s.Neg = !s.Neg
		}
		fl.Set(r, c, s)
	}
	return fl.Eval(a)
}

// NMR is an N-modular-redundant lattice: R copies whose outputs feed a
// majority voter (the voter itself is assumed reliable, the standard
// TMR assumption — see DESIGN.md). It is the scalar model that
// ErrorRates' bit-sliced vote reproduces.
type NMR struct {
	Copies []*lattice.Lattice
}

// NewNMR replicates the lattice n times (n odd).
func NewNMR(l *lattice.Lattice, n int) *NMR {
	if n < 1 || n%2 == 0 {
		panic(fmt.Sprintf("redundancy: modular redundancy needs odd n, got %d", n))
	}
	copies := make([]*lattice.Lattice, n)
	for i := range copies {
		copies[i] = l.Clone()
	}
	return &NMR{Copies: copies}
}

// Area returns the total crosspoint cost of the redundant system.
func (m *NMR) Area() int {
	a := 0
	for _, c := range m.Copies {
		a += c.Area()
	}
	return a
}

// EvalTransient evaluates all copies under independent transient upsets
// and returns the majority vote.
func (m *NMR) EvalTransient(a uint64, p float64, rng *rand.Rand) bool {
	ones := 0
	for _, c := range m.Copies {
		if TransientEval(c, a, p, rng) {
			ones++
		}
	}
	return ones*2 > len(m.Copies)
}

// ErrorRatesScalar is the scalar reference for ErrorRates: one graph
// walk per trial and per redundant copy. The property tests pin the
// bit-parallel path against it.
func ErrorRatesScalar(l *lattice.Lattice, nVars int, nmr int, p float64, trials int, rng *rand.Rand) (bare, protected float64) {
	m := NewNMR(l, nmr)
	bareErr, protErr := 0, 0
	size := uint64(1) << uint(nVars)
	for t := 0; t < trials; t++ {
		a := rng.Uint64() % size
		want := l.Eval(a)
		if TransientEval(l, a, p, rng) != want {
			bareErr++
		}
		if m.EvalTransient(a, p, rng) != want {
			protErr++
		}
	}
	return float64(bareErr) / float64(trials), float64(protErr) / float64(trials)
}
