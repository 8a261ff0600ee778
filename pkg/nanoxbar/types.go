package nanoxbar

import (
	"nanoxbar/internal/engine"
)

// The request/result vocabulary of the serving API. These are aliases
// of the engine's wire types: the same structs travel in-process, over
// the /v2/jobs HTTP protocol, and in batch files, so local and remote
// callers are bit-for-bit interchangeable.
type (
	// Kind selects the scenario a Request runs ("synthesize",
	// "compare", "map", "yield").
	Kind = engine.Kind
	// FunctionSpec names the target Boolean function in exactly one of
	// three ways: benchmark name, Boolean expression, or truth table
	// literal. Use the Func/Expr/TT constructors.
	FunctionSpec = engine.FunctionSpec
	// Request is one unit of work in wire form. SDK callers usually
	// build it through Options; it is exported for batch submission
	// over the /v2/jobs protocol.
	Request = engine.Request
	// Result is the wire outcome of one Request.
	Result = engine.Result
	// Synthesis summarizes one synthesized implementation.
	Synthesis = engine.SynthesisResult
	// Comparison reports all three technologies for one function.
	Comparison = engine.CompareResult
	// MapOutcome is the result of placing an implementation on one
	// defective chip.
	MapOutcome = engine.MapResult
	// YieldStats aggregates recovery statistics over a sweep of dies.
	YieldStats = engine.YieldResult
	// DefectMapSpec is the wire form of a defect map ('.', 'o', 'c'
	// rows plus broken/bridged wire index lists).
	DefectMapSpec = engine.DefectMapSpec
	// Stats is a point-in-time engine counter snapshot.
	Stats = engine.Stats
)

// Request kinds.
const (
	KindSynthesize = engine.KindSynthesize
	KindCompare    = engine.KindCompare
	KindMap        = engine.KindMap
	KindYield      = engine.KindYield
)

// Func names a benchmark-suite function (e.g. "maj5").
func Func(name string) FunctionSpec { return FunctionSpec{Name: name} }

// Expr gives the function as a Boolean expression (e.g. "x1x2 + x3'").
func Expr(expr string) FunctionSpec { return FunctionSpec{Expr: expr} }

// TT gives the function as a truth-table literal (e.g. "3:0x96").
func TT(tt string) FunctionSpec { return FunctionSpec{TT: tt} }

// Die is one streamed per-die outcome of a yield sweep, delivered in
// completion order. Exactly one of Map/Err is non-nil.
type Die struct {
	// Index is the die number within the sweep (seeds are derived from
	// it, so a die's outcome is independent of completion order).
	Index int
	Map   *MapOutcome
	Err   error
}
