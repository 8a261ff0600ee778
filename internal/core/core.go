// Package core is the public facade of the nanoxbar library: the
// end-to-end synthesis and optimization pipeline of the DATE'17 paper.
// It takes a Boolean function, minimizes it, implements it on a chosen
// crossbar technology (diode, FET, or four-terminal lattice), optionally
// applies the P-circuit and D-reducibility preprocessing, and reports
// array sizes; and it wires the synthesized implementation into the
// fault-tolerance machinery (BIST/BISM/defect-unaware flow).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/pcircuit"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xbar2t"
)

// Technology selects the crosspoint device.
type Technology int

// Supported crossbar technologies.
const (
	Diode Technology = iota
	FET
	FourTerminal
)

func (t Technology) String() string {
	switch t {
	case Diode:
		return "diode"
	case FET:
		return "fet"
	case FourTerminal:
		return "4T-lattice"
	}
	return fmt.Sprintf("Technology(%d)", int(t))
}

// Options configure the pipeline.
type Options struct {
	Synth latsynth.Options
	// TryPCircuit also synthesizes a P-circuit decomposition for
	// four-terminal targets and keeps the smaller lattice.
	TryPCircuit bool
	// TryDReduce also synthesizes the D-reducible decomposition for
	// four-terminal targets and keeps the smaller lattice.
	TryDReduce bool
}

// DefaultOptions enable everything the paper's flow uses.
func DefaultOptions() Options {
	return Options{Synth: latsynth.DefaultOptions(), TryPCircuit: true, TryDReduce: true}
}

// Implementation is a synthesized crossbar realization of a function.
type Implementation struct {
	Tech       Technology
	Rows, Cols int
	Method     string // "dual", "pcircuit", "dreduce", "formula"
	FCover     cube.Cover
	DualCover  cube.Cover

	Lattice *lattice.Lattice   // four-terminal targets
	DiodeA  *xbar2t.DiodeArray // diode targets
	FETA    *xbar2t.FETArray   // FET targets

	// app caches the App() conversion. Implementations are shared
	// read-only through the engine cache, and a yield sweep maps the
	// same implementation onto thousands of dies — the application
	// matrix (and the used-column index bism precomputes inside it)
	// must be built once per implementation, not once per die.
	app atomic.Pointer[bism.App]
}

// Area returns Rows×Cols.
func (im *Implementation) Area() int { return im.Rows * im.Cols }

// Synthesize implements f on the chosen technology.
func Synthesize(f truthtab.TT, tech Technology, opts Options) (*Implementation, error) {
	return SynthesizeCtx(context.Background(), f, tech, opts)
}

// SynthesizeCtx is Synthesize with cancellation: the context is checked
// before each synthesis phase (dual method, P-circuit search,
// D-reducibility), so a canceled caller stops between the expensive
// steps and gets an apierr.ErrCanceled-classified error. Synthesis
// failures from the underlying engines are classified as
// apierr.ErrInfeasible.
func SynthesizeCtx(ctx context.Context, f truthtab.TT, tech Technology, opts Options) (*Implementation, error) {
	if err := ctx.Err(); err != nil {
		return nil, apierr.Canceled(err)
	}
	switch tech {
	case Diode:
		fc, dc, _ := latsynth.Covers(f, opts.Synth)
		a := xbar2t.NewDiodeArray(fc)
		return &Implementation{
			Tech: Diode, Rows: a.Rows(), Cols: a.Cols(),
			Method: "formula", FCover: fc, DualCover: dc, DiodeA: a,
		}, nil
	case FET:
		fc, dc, _ := latsynth.Covers(f, opts.Synth)
		a := xbar2t.NewFETArray(fc, dc)
		s := xbar2t.FormulaSizes(fc, dc)
		return &Implementation{
			Tech: FET, Rows: s.FETRows, Cols: s.FETCols,
			Method: "formula", FCover: fc, DualCover: dc, FETA: a,
		}, nil
	case FourTerminal:
		// DualMethod computes the covers itself and returns them.
		best, err := latsynth.DualMethod(f, opts.Synth)
		if err != nil {
			return nil, apierr.Infeasible("core: dual method: %v", err)
		}
		method := "dual"
		bestL := best.Lattice
		// P-circuit search is O(support) full syntheses; beyond 8
		// support variables the exact engines are out of their
		// comfort zone and the search would dominate runtime.
		if opts.TryPCircuit && len(f.Support()) >= 2 && len(f.Support()) <= 8 {
			if err := ctx.Err(); err != nil {
				return nil, apierr.Canceled(err)
			}
			if pres, err := pcircuit.Best(f, pcircuit.Options{Synth: opts.Synth, Mode: pcircuit.WithIntersection}); err == nil {
				if pres.Area() < bestL.Area() {
					bestL, method = pres.Lattice, "pcircuit"
				}
			}
		}
		if opts.TryDReduce && !f.IsZero() {
			if err := ctx.Err(); err != nil {
				return nil, apierr.Canceled(err)
			}
			if dres, err := dreduce.Synthesize(f, opts.Synth); err == nil {
				if dres.Area() < bestL.Area() {
					bestL, method = dres.Lattice, "dreduce"
				}
			}
		}
		return &Implementation{
			Tech: FourTerminal, Rows: bestL.R, Cols: bestL.C,
			Method: method, FCover: best.FCover, DualCover: best.DualCover, Lattice: bestL,
		}, nil
	}
	return nil, apierr.BadSpec("core: unknown technology %v", tech)
}

// Verify re-checks that the implementation computes f.
func (im *Implementation) Verify(f truthtab.TT) bool {
	n := f.NumVars()
	switch im.Tech {
	case Diode:
		return im.DiodeA.Function(n).Equal(f)
	case FET:
		return im.FETA.Function(n).Equal(f)
	case FourTerminal:
		return im.Lattice.Implements(f)
	}
	return false
}

// Comparison reports the three technologies side by side for one
// function — the paper's central size comparison (E2).
type Comparison struct {
	Diode, FET, Lattice *Implementation
}

// CompareTechnologies synthesizes f on all three technologies.
func CompareTechnologies(f truthtab.TT, opts Options) (*Comparison, error) {
	return CompareTechnologiesCtx(context.Background(), f, opts)
}

// CompareTechnologiesCtx is CompareTechnologies with cancellation
// between the per-technology syntheses.
func CompareTechnologiesCtx(ctx context.Context, f truthtab.TT, opts Options) (*Comparison, error) {
	d, err := SynthesizeCtx(ctx, f, Diode, opts)
	if err != nil {
		return nil, err
	}
	ft, err := SynthesizeCtx(ctx, f, FET, opts)
	if err != nil {
		return nil, err
	}
	l, err := SynthesizeCtx(ctx, f, FourTerminal, opts)
	if err != nil {
		return nil, err
	}
	return &Comparison{Diode: d, FET: ft, Lattice: l}, nil
}

// ToApp converts an implementation into the self-mapping application
// format: the matrix of crosspoints the configuration must close (for
// two-terminal arrays) or program (for lattices, every non-constant-0
// site needs a working programmable crosspoint).
func (im *Implementation) ToApp() *bism.App {
	switch im.Tech {
	case Diode:
		used := make([][]bool, im.DiodeA.Rows())
		for r := range used {
			used[r] = make([]bool, im.DiodeA.Cols())
			copy(used[r], im.DiodeA.Crosspoints[r])
			used[r][im.DiodeA.Cols()-1] = true // output-column diode
		}
		return bism.NewApp(used)
	case FourTerminal:
		used := make([][]bool, im.Lattice.R)
		for r := range used {
			used[r] = make([]bool, im.Lattice.C)
			for c := range used[r] {
				used[r][c] = im.Lattice.At(r, c).Kind != lattice.Const0
			}
		}
		return bism.NewApp(used)
	default:
		// FET arrays: both planes flattened row-major by input line.
		used := make([][]bool, len(im.FETA.Rows))
		for r, l := range im.FETA.Rows {
			used[r] = make([]bool, im.FETA.NumCols())
			for j, p := range im.FETA.FProducts {
				used[r][j] = p.HasLiteral(l.Var, l.Neg)
			}
			for j, q := range im.FETA.DProducts {
				used[r][len(im.FETA.FProducts)+j] = q.HasLiteral(l.Var, l.Neg)
			}
		}
		return bism.NewApp(used)
	}
}

// App returns the cached self-mapping application form of the
// implementation. The result is shared: callers must treat it as
// read-only (bism does). Use ToApp for a private copy.
func (im *Implementation) App() *bism.App {
	if a := im.app.Load(); a != nil {
		return a
	}
	a := im.ToApp()
	// Racing builders compute structurally identical apps; last wins.
	im.app.Store(a)
	return a
}

// MapReport is the outcome of placing an implementation on a defective
// chip via a BISM scheme.
type MapReport struct {
	Mapping *bism.Mapping
	Stats   bism.Stats
}

// MapWithRecovery runs the chosen self-mapping scheme to place the
// implementation on a defective chip.
func MapWithRecovery(im *Implementation, chip *defect.Map, scheme bism.Mapper, maxAttempts int, rng *rand.Rand) (*MapReport, error) {
	app := im.App()
	if chip.R != chip.C {
		return nil, apierr.BadSpec("core: chip must be square, got %d×%d", chip.R, chip.C)
	}
	if app.R > chip.R || app.C > chip.C {
		return nil, apierr.Infeasible("core: implementation %d×%d exceeds chip %d×%d", app.R, app.C, chip.R, chip.C)
	}
	m, st := scheme.Map(bism.NewChip(chip), app, maxAttempts, rng)
	return &MapReport{Mapping: m, Stats: st}, nil
}
