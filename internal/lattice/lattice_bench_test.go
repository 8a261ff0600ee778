package lattice

import (
	"math/rand"
	"testing"
)

func benchLattice(r, c, n int, seed int64) *Lattice {
	rng := rand.New(rand.NewSource(seed))
	l := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			l.Set(i, j, Lit(rng.Intn(n), rng.Intn(2) == 1))
		}
	}
	return l
}

func BenchmarkEval8x8(b *testing.B) {
	l := benchLattice(8, 8, 6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Eval(uint64(i) & 63)
	}
}

func BenchmarkEvalDual8x8(b *testing.B) {
	l := benchLattice(8, 8, 6, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.EvalDual(uint64(i) & 63)
	}
}

// BenchmarkFunction6Var is a one-word expansion through the pooled
// bit-parallel evaluator.
func BenchmarkFunction6Var(b *testing.B) {
	l := benchLattice(6, 6, 6, 3)
	for i := 0; i < b.N; i++ {
		l.Function(6)
	}
}

// BenchmarkEvaluatorWords6Var is the steady-state evaluator loop —
// result words land in reused scratch, so this must run at 0 allocs/op.
func BenchmarkEvaluatorWords6Var(b *testing.B) {
	l := benchLattice(6, 6, 6, 3)
	ev := NewEvaluator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.FunctionWords(l, 6)
	}
}

// BenchmarkFunction8Var measures a multi-word (2^8 assignments = 4
// words) expansion.
func BenchmarkFunction8Var(b *testing.B) {
	l := benchLattice(8, 8, 8, 6)
	for i := 0; i < b.N; i++ {
		l.Function(8)
	}
}

// BenchmarkImplementsFast6Var measures the verification check
// PostReduce issues per deletion trial, on a succeeding (worst-case: no
// early exit) instance.
func BenchmarkImplementsFast6Var(b *testing.B) {
	l := benchLattice(6, 6, 6, 3)
	f := l.Function(6)
	ev := NewEvaluator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Implements(l, f)
	}
}

func BenchmarkDualFunction6Var(b *testing.B) {
	l := benchLattice(6, 6, 6, 2)
	for i := 0; i < b.N; i++ {
		l.DualFunction(6)
	}
}

func BenchmarkOrCompose(b *testing.B) {
	x := benchLattice(4, 4, 4, 4)
	y := benchLattice(3, 5, 4, 5)
	for i := 0; i < b.N; i++ {
		Or(x, y)
	}
}
