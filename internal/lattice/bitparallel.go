// Bit-parallel lattice evaluation.
//
// Eval walks one assignment at a time, so expanding a function that way
// costs 2^n walks. Every hot loop in the repository — dual-method
// verification, PostReduce deletion trials, the bounded-optimal search,
// the serving engine — expands functions, so expansions run here
// instead, on truthtable word parallelism: each site's conduction over
// 64 consecutive assignments is a single uint64 "on-mask" (a literal
// site's mask is just the variable's truthtab bit pattern), and the
// top-to-bottom percolation becomes word-wide frontier propagation
//
//	reach[site] |= OR(reach[neighbors]) & on[site]
//
// iterated to fixpoint, so one sweep pass evaluates 64 assignments at
// once. Sweeps alternate direction (top-left→bottom-right, then
// reversed) Gauss–Seidel style; a full sweep with no change certifies
// the least fixpoint, and the reached set only grows, which gives
// Implements an early exit the moment the function overshoots its
// target on any word.

package lattice

import (
	"sync"
	"sync/atomic"

	"nanoxbar/internal/truthtab"
)

// varPattern[v] is the truth-table word pattern of variable v for
// v < 6: bit a of the pattern is bit v of assignment a. Variables ≥ 6
// are constant across a 64-assignment word and select whole words by
// word index instead.
var varPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// numWords returns ceil(2^n / 64) with a one-word minimum, matching the
// truthtab Words layout.
func numWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// validMask returns the valid-assignment mask of a word for n
// variables (all 64 bits from n ≥ 6 up).
func validMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return uint64(1)<<(1<<n) - 1
}

// onMask returns the site's conduction mask over word block wi: bit a
// is s.On(wi<<6 | a), restricted to vm.
func onMask(s Site, wi int, vm uint64) uint64 {
	switch s.Kind {
	case Const0:
		return 0
	case Const1:
		return vm
	}
	if s.Var < 6 {
		p := varPattern[s.Var]
		if s.Neg {
			p = ^p
		}
		return p & vm
	}
	if ((wi>>(s.Var-6))&1 == 1) != s.Neg {
		return vm
	}
	return 0
}

// dualOnMask is onMask for the dual (left-to-right, 8-connected)
// reading: bit a is ¬s.On(¬a). For a literal that coincides with
// s.On(a); constants swap roles.
func dualOnMask(s Site, wi int, vm uint64) uint64 {
	switch s.Kind {
	case Const0:
		return vm
	case Const1:
		return 0
	}
	return onMask(s, wi, vm)
}

// Evaluation counters, exported through CounterSnapshot for the serving
// daemon's /stats endpoint.
var (
	ctrFastFunctions  atomic.Uint64
	ctrFastImplements atomic.Uint64
	ctrWordBlocks     atomic.Uint64
)

// Counters is a point-in-time snapshot of the process-wide lattice
// evaluation counters.
type Counters struct {
	FastFunctions  uint64 `json:"fast_functions"`   // bit-parallel function expansions
	FastImplements uint64 `json:"fast_implements"`  // bit-parallel Implements/feasibility checks
	WordBlocks     uint64 `json:"fast_word_blocks"` // 64-assignment word blocks percolated
}

// CounterSnapshot returns the current evaluation counters.
func CounterSnapshot() Counters {
	return Counters{
		FastFunctions:  ctrFastFunctions.Load(),
		FastImplements: ctrFastImplements.Load(),
		WordBlocks:     ctrWordBlocks.Load(),
	}
}

// Evaluator runs bit-parallel lattice evaluations with reusable
// scratch. The zero value is ready to use; scratch grows to the largest
// lattice seen and is reused across calls. An Evaluator is not safe for
// concurrent use — give each goroutine its own, or use the pooled
// Lattice.Function/DualFunction/Implements methods.
type Evaluator struct {
	onw   []uint64 // per-site on-masks of the current word block
	reach []uint64 // per-site reached-from-source masks
	fn    []uint64 // FunctionWords result buffer
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator() *Evaluator { return &Evaluator{} }

func (e *Evaluator) grow(sites int) {
	if len(e.onw) < sites {
		e.onw = make([]uint64, sites)
		e.reach = make([]uint64, sites)
	}
}

// buildOnWord fills e.onw for word block wi. Sites at index ≥ filled
// (a partial fill during the optimal search) get fillMask instead of
// their own mask; full evaluations pass filled = len(sites).
func (e *Evaluator) buildOnWord(l *Lattice, wi int, vm uint64, dual bool, filled int, fillMask uint64) {
	onw := e.onw[:len(l.sites)]
	for i, s := range l.sites {
		if i >= filled {
			onw[i] = fillMask
			continue
		}
		if dual {
			onw[i] = dualOnMask(s, wi, vm)
		} else {
			onw[i] = onMask(s, wi, vm)
		}
	}
}

// runWord percolates one word block to fixpoint over e.onw and returns
// the sink mask: bit a set iff a source-to-sink path of conducting
// sites exists under assignment (wi<<6 | a). Normal mode percolates top
// row → bottom row over 4-connected sites; dual mode left column →
// right column over 8-connected sites. When bounded, iteration aborts
// with ok=false as soon as the sink mask leaves limit (reach only
// grows, so any excess is permanent).
func (e *Evaluator) runWord(R, C int, dual, bounded bool, limit uint64) (sink uint64, ok bool) {
	sites := R * C
	onw, reach := e.onw[:sites], e.reach[:sites]
	for i := range reach {
		reach[i] = 0
	}
	// Seed the source plate.
	if dual {
		for i := 0; i < sites; i += C {
			reach[i] = onw[i]
		}
	} else {
		copy(reach, onw[:C])
	}
	sinkOr := func() uint64 {
		var s uint64
		if dual {
			for i := C - 1; i < sites; i += C {
				s |= reach[i]
			}
		} else {
			for i := sites - C; i < sites; i++ {
				s |= reach[i]
			}
		}
		return s
	}
	// Gauss–Seidel sweeps with in-place updates, alternating direction:
	// a forward (top-left→bottom-right) sweep propagates down/rightward
	// chains in one pass, a backward sweep the up/leftward ones, so the
	// sweep count tracks the number of direction reversals in the
	// longest percolation path rather than its length. A complete sweep
	// with no change certifies the fixpoint in either direction.
	for forward := true; ; forward = !forward {
		changed := false
		if forward {
			for r := 0; r < R; r++ {
				for i := r * C; i < (r+1)*C; i++ {
					o := onw[i]
					if o == 0 {
						continue
					}
					c := i - r*C
					acc := reach[i]
					if r > 0 {
						acc |= reach[i-C]
					}
					if r < R-1 {
						acc |= reach[i+C]
					}
					if c > 0 {
						acc |= reach[i-1]
					}
					if c < C-1 {
						acc |= reach[i+1]
					}
					if dual {
						acc |= gatherDiag(reach, i, r, c, R, C)
					}
					if acc &= o; acc != reach[i] {
						reach[i] = acc
						changed = true
					}
				}
			}
		} else {
			for r := R - 1; r >= 0; r-- {
				for i := (r+1)*C - 1; i >= r*C; i-- {
					o := onw[i]
					if o == 0 {
						continue
					}
					c := i - r*C
					acc := reach[i]
					if r > 0 {
						acc |= reach[i-C]
					}
					if r < R-1 {
						acc |= reach[i+C]
					}
					if c > 0 {
						acc |= reach[i-1]
					}
					if c < C-1 {
						acc |= reach[i+1]
					}
					if dual {
						acc |= gatherDiag(reach, i, r, c, R, C)
					}
					if acc &= o; acc != reach[i] {
						reach[i] = acc
						changed = true
					}
				}
			}
		}
		if !changed {
			return sinkOr(), true
		}
		if bounded {
			if s := sinkOr(); s&^limit != 0 {
				return s, false
			}
		}
	}
}

// gatherDiag ORs the four diagonal neighbors (8-connected dual mode).
func gatherDiag(reach []uint64, i, r, c, R, C int) uint64 {
	var acc uint64
	if r > 0 {
		if c > 0 {
			acc |= reach[i-C-1]
		}
		if c < C-1 {
			acc |= reach[i-C+1]
		}
	}
	if r < R-1 {
		if c > 0 {
			acc |= reach[i+C-1]
		}
		if c < C-1 {
			acc |= reach[i+C+1]
		}
	}
	return acc
}

// functionWords expands the (dual=false: top-to-bottom, dual=true:
// left-to-right) function over n variables into e.fn and returns it.
// The slice is the evaluator's internal buffer, valid until the next
// call on e.
func (e *Evaluator) functionWords(l *Lattice, n int, dual bool) []uint64 {
	ctrFastFunctions.Add(1)
	e.grow(len(l.sites))
	W, vm := numWords(n), validMask(n)
	if len(e.fn) < W {
		e.fn = make([]uint64, W)
	}
	fn := e.fn[:W]
	for wi := 0; wi < W; wi++ {
		e.buildOnWord(l, wi, vm, dual, len(l.sites), 0)
		fn[wi], _ = e.runWord(l.R, l.C, dual, false, 0)
	}
	// One batched counter update per expansion, not per word block:
	// these are process-wide atomics, and per-block increments would
	// bounce their cache line across the engine's worker pool.
	ctrWordBlocks.Add(uint64(W))
	return fn
}

// FunctionWords computes the top-to-bottom function of l over n
// variables in the truthtab Words layout. The returned slice aliases
// the evaluator's scratch: valid until the next call on e.
func (e *Evaluator) FunctionWords(l *Lattice, n int) []uint64 {
	return e.functionWords(l, n, false)
}

// Function computes the top-to-bottom function of l over n variables.
func (e *Evaluator) Function(l *Lattice, n int) truthtab.TT {
	t, _ := truthtab.FromWords(n, e.functionWords(l, n, false))
	return t
}

// DualFunction computes the left-to-right dual reading of l over n
// variables.
func (e *Evaluator) DualFunction(l *Lattice, n int) truthtab.TT {
	t, _ := truthtab.FromWords(n, e.functionWords(l, n, true))
	return t
}

// Implements reports whether l computes f top-to-bottom. It proceeds
// word block by word block and exits on the first mismatching word —
// inside a block as soon as the reached set overshoots f (reach only
// grows), or at the block's fixpoint when it undershoots — which makes
// the failing trials of PostReduce cheap.
func (e *Evaluator) Implements(l *Lattice, f truthtab.TT) bool {
	ctrFastImplements.Add(1)
	e.grow(len(l.sites))
	n := f.NumVars()
	W, vm := numWords(n), validMask(n)
	for wi := 0; wi < W; wi++ {
		fw := f.Word(wi)
		e.buildOnWord(l, wi, vm, false, len(l.sites), 0)
		sink, ok := e.runWord(l.R, l.C, false, true, fw)
		if !ok || sink != fw {
			ctrWordBlocks.Add(uint64(wi + 1))
			return false
		}
	}
	ctrWordBlocks.Add(uint64(W))
	return true
}

// FeasiblePartial applies the optimal search's two monotone prunes to a
// partial fill — sites at index ≥ filled are undecided — in one
// bit-parallel pass per word block: with undecided sites conducting the
// lattice must still cover f (else no completion can add the missing
// paths), and with undecided sites blocking it must stay within f (else
// no completion can remove the excess ones).
func (e *Evaluator) FeasiblePartial(l *Lattice, filled int, f truthtab.TT) bool {
	ctrFastImplements.Add(1)
	e.grow(len(l.sites))
	n := f.NumVars()
	W, vm := numWords(n), validMask(n)
	blocks := uint64(0)
	defer func() { ctrWordBlocks.Add(blocks) }()
	for wi := 0; wi < W; wi++ {
		fw := f.Word(wi)
		if fw != 0 {
			e.buildOnWord(l, wi, vm, false, filled, vm)
			opt, _ := e.runWord(l.R, l.C, false, false, 0)
			blocks++
			if fw&^opt != 0 {
				return false
			}
		}
		if fw != vm {
			e.buildOnWord(l, wi, vm, false, filled, 0)
			blocks++
			if sink, ok := e.runWord(l.R, l.C, false, true, fw); !ok || sink&^fw != 0 {
				return false
			}
		}
	}
	return true
}

// PercolateMasks percolates one word of caller-supplied per-site
// conduction masks (row-major, R*C words, bit t = site conducts in
// trial t) to fixpoint — top row to bottom row, 4-connected — and
// returns the sink mask: bit t set iff a source-to-sink path of
// conducting sites exists in trial t. This is the entry point for
// callers whose 64 lanes are not consecutive truth-table assignments,
// such as redundancy's packed Monte Carlo trials; on is copied into the
// evaluator's scratch and not modified.
func (e *Evaluator) PercolateMasks(R, C int, on []uint64) uint64 {
	if len(on) != R*C {
		panic("lattice: PercolateMasks needs R*C site masks")
	}
	e.grow(len(on))
	copy(e.onw[:len(on)], on)
	sink, _ := e.runWord(R, C, false, false, 0)
	ctrWordBlocks.Add(1)
	return sink
}

// evalPool backs the pooled convenience wrappers so call sites that
// cannot hold an Evaluator still skip per-call scratch allocation.
var evalPool = sync.Pool{New: func() any { return NewEvaluator() }}

// Function expands the top-to-bottom function over n variables via a
// pooled bit-parallel evaluator: one frontier percolation per 64
// assignments.
func (l *Lattice) Function(n int) truthtab.TT {
	e := evalPool.Get().(*Evaluator)
	t := e.Function(l, n)
	evalPool.Put(e)
	return t
}

// DualFunction expands the left-to-right dual reading over n variables
// via a pooled bit-parallel evaluator.
func (l *Lattice) DualFunction(n int) truthtab.TT {
	e := evalPool.Get().(*Evaluator)
	t := e.DualFunction(l, n)
	evalPool.Put(e)
	return t
}

// Implements reports whether the lattice computes f top-to-bottom, via
// a pooled bit-parallel evaluator with early exit on the first
// mismatching word.
func (l *Lattice) Implements(f truthtab.TT) bool {
	e := evalPool.Get().(*Evaluator)
	ok := e.Implements(l, f)
	evalPool.Put(e)
	return ok
}
