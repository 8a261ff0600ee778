package lattice

import (
	"math/rand"
	"sync"
	"testing"

	"nanoxbar/internal/truthtab"
)

// randomLattice draws an R×C lattice mixing literals over n variables
// with occasional constants.
func randomLattice(rng *rand.Rand, r, c, n int) *Lattice {
	l := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			switch rng.Intn(10) {
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

// scalarFunction expands l over n variables one assignment at a time
// through Eval (dual: EvalDual): the reference expansion the
// bit-parallel evaluator is held to.
func scalarFunction(l *Lattice, n int, dual bool) truthtab.TT {
	t := truthtab.New(n)
	for a := uint64(0); a < t.Size(); a++ {
		if dual && l.EvalDual(a) || !dual && l.Eval(a) {
			t.SetBit(a, true)
		}
	}
	return t
}

// TestBitParallelAgreesWithScalar is the core property test: on
// randomized lattices the bit-parallel Function/DualFunction/Implements
// must agree with the per-assignment scalar walk, across word-boundary
// variable counts (n = 6 is one exact word, n = 7..8 multi-word, n < 6
// a partial word).
func TestBitParallelAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev := NewEvaluator() // deliberately shared across sizes: scratch must reset
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		l := randomLattice(rng, 1+rng.Intn(5), 1+rng.Intn(5), n)
		want := scalarFunction(l, n, false)
		wantD := scalarFunction(l, n, true)

		if got := l.Function(n); !got.Equal(want) {
			t.Fatalf("trial %d: Function = %v, want %v for\n%v", trial, got, want, l)
		}
		if got := ev.Function(l, n); !got.Equal(want) {
			t.Fatalf("trial %d: Evaluator.Function = %v, want %v for\n%v", trial, got, want, l)
		}
		if got := l.DualFunction(n); !got.Equal(wantD) {
			t.Fatalf("trial %d: DualFunction = %v, want %v for\n%v", trial, got, wantD, l)
		}
		if got := ev.DualFunction(l, n); !got.Equal(wantD) {
			t.Fatalf("trial %d: Evaluator.DualFunction = %v, want %v for\n%v", trial, got, wantD, l)
		}
		if !l.Implements(want) || !ev.Implements(l, want) {
			t.Fatalf("trial %d: Implements rejects the lattice's own function\n%v", trial, l)
		}
		// Perturbing any one minterm must be detected.
		flip := want.Clone()
		a := rng.Uint64() & (want.Size() - 1)
		flip.SetBit(a, !flip.Bit(a))
		if l.Implements(flip) || ev.Implements(l, flip) {
			t.Fatalf("trial %d: Implements accepts a perturbed function", trial)
		}
	}
}

// TestBitParallelFixtures pins the bit-parallel path to the repository's seed
// fixtures.
func TestBitParallelFixtures(t *testing.T) {
	l := fig4()
	want := fig4Function(t)
	if !l.Implements(want) {
		t.Fatalf("Fig.4 lattice: Implements = false; Function = %v, want %v", l.Function(6), want)
	}
	if !l.DualFunction(6).Equal(want.Dual()) {
		t.Fatal("Fig.4 lattice: DualFunction differs from the dual of its function")
	}

	one := Constant(true)
	if !one.Function(1).IsOne() || !one.DualFunction(1).IsZero() {
		t.Fatal("constant-1 lattice bit-parallel evaluation")
	}
	zero := Constant(false)
	if !zero.Function(1).IsZero() || !zero.DualFunction(1).IsOne() {
		t.Fatal("constant-0 lattice bit-parallel evaluation")
	}
	x := New(1, 1)
	x.Set(0, 0, Lit(0, false))
	if !x.Function(1).Equal(truthtab.Var(1, 0)) || !x.DualFunction(1).Equal(truthtab.Var(1, 0)) {
		t.Fatal("single-literal lattice bit-parallel evaluation")
	}
}

// TestBitParallelComposition checks the bit-parallel expansion of
// Altun–Riedel compositions against the scalar walk of their operands.
func TestBitParallelComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5
	for trial := 0; trial < 50; trial++ {
		a := randomLattice(rng, 1+rng.Intn(3), 1+rng.Intn(3), n)
		b := randomLattice(rng, 1+rng.Intn(3), 1+rng.Intn(3), n)
		or, and := Or(a, b), And(a, b)
		fa, fb := scalarFunction(a, n, false), scalarFunction(b, n, false)
		if !or.Function(n).Equal(fa.Or(fb)) {
			t.Fatalf("trial %d: Or composition under Function", trial)
		}
		if !and.Function(n).Equal(fa.And(fb)) {
			t.Fatalf("trial %d: And composition under Function", trial)
		}
	}
}

// TestFeasiblePartial cross-checks the bit-parallel prune against the
// definitionally correct construction: filling the undecided sites with
// Const1 (optimistic) / Const0 (pessimistic) and evaluating.
func TestFeasiblePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ev := NewEvaluator()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		R, C := 1+rng.Intn(4), 1+rng.Intn(4)
		l := randomLattice(rng, R, C, n)
		f := randomLattice(rng, 1+rng.Intn(4), 1+rng.Intn(4), n).Function(n)
		filled := rng.Intn(R*C + 1)

		opt, pess := l.Clone(), l.Clone()
		for i := filled; i < R*C; i++ {
			opt.Set(i/C, i%C, Site{Kind: Const1})
			pess.Set(i/C, i%C, Site{Kind: Const0})
		}
		want := f.Implies(opt.Function(n)) && pess.Function(n).Implies(f)
		if got := ev.FeasiblePartial(l, filled, f); got != want {
			t.Fatalf("trial %d: FeasiblePartial = %v, want %v (filled %d of %d×%d)", trial, got, want, filled, R, C)
		}
	}
}

// TestEvaluatorConcurrentPools exercises the pooled methods from many
// goroutines so the race detector can see any scratch sharing.
func TestEvaluatorConcurrentPools(t *testing.T) {
	l := fig4()
	want := fig4Function(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				rl := randomLattice(rng, 1+rng.Intn(4), 1+rng.Intn(4), 4)
				if !rl.Function(4).Equal(scalarFunction(rl, 4, false)) {
					t.Error("concurrent Function mismatch")
					return
				}
				if !l.Implements(want) {
					t.Error("concurrent Implements mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestCounterSnapshot checks the evaluation counters move.
func TestCounterSnapshot(t *testing.T) {
	before := CounterSnapshot()
	l := fig4()
	l.Function(6)
	l.Implements(fig4Function(t))
	after := CounterSnapshot()
	if after.FastFunctions <= before.FastFunctions ||
		after.FastImplements <= before.FastImplements ||
		after.WordBlocks <= before.WordBlocks {
		t.Fatalf("counters did not advance: before %+v after %+v", before, after)
	}
}
