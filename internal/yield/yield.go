// Package yield is the bit-sliced multi-die yield engine: it answers
// "what fraction of fabricated dies can realize this application?" by
// processing dies 64 at a time in lane-word form instead of one scalar
// defect map at a time.
//
// The paper's yield question (Section IV's defect-aware mapping story)
// is embarrassingly parallel across dies, and PR 5 already made the
// per-die primitives bit-parallel along the column axis. This package
// applies the remaining 64x axis — the same 64-lanes-per-word trick the
// redundancy engine uses for Monte Carlo trials — across dies:
//
//  1. Draw. A worker draws a group of 64 dies' defect planes directly
//     into defect.LanePlanes lane words (die-major transposed layout),
//     one seeded stream per die, bit-for-bit the stream RandomInto
//     would have produced for the same die seed.
//  2. Fast check. A fixed schedule of disjoint block-diagonal candidate
//     mappings (candidate k places the application at rows/cols k·appR,
//     k·appC) is probed with bism.CheckLanes — one BIST session per
//     candidate covering all 64 dies at once as word intersections. A
//     die passing candidate k is done: it took k+1 configurations and
//     k+1 BIST calls, and its mapping is the shared candidate.
//  3. Demote. Only dies failing every candidate fall back to the
//     retained scalar path: reseed the die's stream, redraw its map
//     with RandomInto (identical bits, and it leaves the RNG exactly
//     where the lane draw did), and run the requested bism mapper with
//     its full greedy/hybrid repair machinery.
//
// Because the candidates are disjoint, their failure events are
// independent under uniform defects, so the demotion rate falls
// geometrically with the schedule length and almost every die resolves
// in step 2. The property suite pins Run bit-for-bit — mappings, stats,
// and success flags, across word boundaries and degenerate defect
// densities — to a test-only scalar oracle that executes the identical
// per-die algorithm on one scalar defect map at a time.
package yield

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/bitlane"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// Spec is one yield sweep: map Dies random ChipSize×ChipSize dies drawn
// from Params, placing App through Scheme when the fast path demotes.
type Spec struct {
	// App is the application to place (shared, read-only).
	App *bism.App
	// Scheme maps demoted dies — the scalar mapper with repair.
	Scheme bism.Mapper
	// ChipSize is the square die side.
	ChipSize int
	// Params draws each die's defects.
	Params defect.Params
	// Dies is the sweep size.
	Dies int
	// Seed derives per-die streams via xrand.SubSeed(Seed, die).
	Seed int64
	// MaxAttempts bounds the demoted mapper's configurations per die.
	MaxAttempts int
	// Parallel bounds worker goroutines (default 1). Results do not
	// depend on it: every die's outcome is a function of its seed only.
	Parallel int
}

// validate rejects specs the runners cannot execute.
func (s Spec) validate() error {
	switch {
	case s.App == nil:
		return fmt.Errorf("yield: nil application")
	case s.Scheme == nil:
		return fmt.Errorf("yield: nil mapping scheme")
	case s.ChipSize < s.App.R || s.ChipSize < s.App.C:
		return fmt.Errorf("yield: %d×%d application exceeds chip size %d", s.App.R, s.App.C, s.ChipSize)
	case s.Dies < 0:
		return fmt.Errorf("yield: negative die count %d", s.Dies)
	case s.MaxAttempts < 1:
		return fmt.Errorf("yield: max attempts %d < 1", s.MaxAttempts)
	}
	return nil
}

func (s Spec) parallel() int {
	if s.Parallel < 1 {
		return 1
	}
	return s.Parallel
}

// DieResult is one die's outcome.
type DieResult struct {
	// Die is the die index in [0, Spec.Dies).
	Die int
	// Mapping is the successful placement, nil on failure. Fast dies
	// share the schedule's candidate mapping: treat it as read-only.
	Mapping *bism.Mapping
	// Stats is the self-mapping effort, fast-path probes included.
	Stats bism.Stats
	// Fast reports the die resolved on the candidate schedule without
	// scalar demotion.
	Fast bool
	// Err is set when the die could not be processed at all (a panic in
	// the mapper); Mapping and Stats are then meaningless.
	Err error
}

// maxCandidates caps the fast-path probe schedule. Eight disjoint
// candidates drive the expected demotion rate to p_fail^8 while keeping
// the schedule (and the BIST-call count of the unluckiest fast die)
// small; past that the scalar mapper's diagnosis-guided repair is the
// better spend.
const maxCandidates = 8

// candidateCount is the schedule length for an app on an n-chip: as
// many disjoint block placements as fit, capped.
func candidateCount(app *bism.App, n int) int {
	k := n / app.R
	if c := n / app.C; c < k {
		k = c
	}
	if k > maxCandidates {
		k = maxCandidates
	}
	return k
}

// candidateMappings materializes the schedule: candidate k occupies
// rows [k·appR, (k+1)·appR) and cols [k·appC, (k+1)·appC). Disjoint by
// construction, so failure events on distinct candidates touch
// disjoint chip resources.
func candidateMappings(app *bism.App, n int) []*bism.Mapping {
	cands := make([]*bism.Mapping, candidateCount(app, n))
	for k := range cands {
		m := &bism.Mapping{Rows: make([]int, app.R), Cols: make([]int, app.C)}
		for i := range m.Rows {
			m.Rows[i] = k*app.R + i
		}
		for j := range m.Cols {
			m.Cols[j] = k*app.C + j
		}
		cands[k] = m
	}
	return cands
}

// fastStats is the effort of a die that passed candidate k: one
// configuration and one BIST session per candidate probed.
func fastStats(k int) bism.Stats {
	return bism.Stats{Configs: k + 1, BISTCalls: k + 1, Success: true}
}

// Run executes a yield sweep: groups of 64 dies are drawn into lane
// planes and probed per candidate as single word-kernel BIST sessions;
// only failing lanes touch the scalar mapper. emit is invoked exactly
// once per die (serialized, completion order across groups, die order
// within one worker's group). Run returns early with ctx.Err() when
// canceled — dies not yet started are then never emitted.
func Run(ctx context.Context, spec Spec, emit func(DieResult)) error {
	if err := spec.validate(); err != nil {
		return err
	}
	par := spec.parallel()
	// Groups default to the full 64-die word. A small sweep on a wide
	// worker pool would strand most workers (64 dies is ONE group), so
	// shrink the group size until every worker has a group; outcomes are
	// per-die seeded, so the partition cannot change them. The floor
	// keeps the per-group candidate scans amortized over enough lanes.
	groupSize := 64
	if g := (spec.Dies + 63) / 64; g < par {
		groupSize = (spec.Dies + par - 1) / par
		if groupSize < 8 {
			groupSize = 8
		}
	}
	groups := (spec.Dies + groupSize - 1) / groupSize
	if par > groups {
		par = groups
	}
	cands := candidateMappings(spec.App, spec.ChipSize)
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		emitMu sync.Mutex
	)
	done := ctx.Done()
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			// Per-worker scratch, reused across every group the worker
			// pulls from the shared counter: the lane planes, one scalar
			// map for demotions, the reseedable die stream, and the
			// per-group result buffer.
			lp := defect.NewLanePlanes(spec.ChipSize, spec.ChipSize)
			chip := defect.NewMap(spec.ChipSize, spec.ChipSize)
			src, rng := xrand.New()
			var out [64]DieResult
			for {
				// The group boundary is the cancellation point: a sweep
				// canceled mid-flight stops drawing new groups; the
				// group being processed finishes.
				select {
				case <-done:
					return
				default:
				}
				g := int(next.Add(1)) - 1
				if g >= groups {
					return
				}
				die0 := g * groupSize
				lanes := spec.Dies - die0
				if lanes > groupSize {
					lanes = groupSize
				}
				runLaneGroup(spec, cands, die0, lanes, lp, chip, src, rng, &out)
				emitMu.Lock()
				for l := 0; l < lanes; l++ {
					emit(out[l])
				}
				emitMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// runLaneGroup processes dies [die0, die0+lanes) into out[0:lanes]. A
// panic anywhere in the group (defect draw, lane check, demoted mapper)
// becomes an Err on every die of the group rather than unwinding the
// worker goroutine.
func runLaneGroup(spec Spec, cands []*bism.Mapping, die0, lanes int, lp *defect.LanePlanes, chip *defect.Map, src *xrand.SplitMix, rng *rand.Rand, out *[64]DieResult) {
	defer func() {
		if r := recover(); r != nil {
			for l := 0; l < lanes; l++ {
				out[l] = DieResult{Die: die0 + l, Err: fmt.Errorf("yield: panic mapping die group at %d: %v", die0, r)}
			}
		}
	}()
	lp.Reset()
	for l := 0; l < lanes; l++ {
		src.Seed(xrand.SubSeed(spec.Seed, die0+l))
		lp.DrawLane(l, spec.Params, rng)
	}
	pending := bitlane.Mask(lanes)
	for k, cand := range cands {
		if pending == 0 {
			break
		}
		failed := bism.CheckLanes(spec.App, lp, k*spec.App.R, k*spec.App.C, pending)
		passed := pending &^ failed
		pending &= failed
		for p := passed; p != 0; p &= p - 1 {
			l := bits.TrailingZeros64(p)
			out[l] = DieResult{Die: die0 + l, Mapping: cand, Stats: fastStats(k), Fast: true}
		}
	}
	// Demote the lanes no candidate fit: replay the die scalar-side.
	for p := pending; p != 0; p &= p - 1 {
		l := bits.TrailingZeros64(p)
		die := die0 + l
		src.Seed(xrand.SubSeed(spec.Seed, die))
		defect.RandomInto(chip, spec.Params, rng)
		m, st := spec.Scheme.Map(bism.NewChip(chip), spec.App, spec.MaxAttempts, rng)
		st.Configs += len(cands)
		st.BISTCalls += len(cands)
		out[l] = DieResult{Die: die, Mapping: m, Stats: st}
	}
}

// LaneRunner is the method spelling of Run that predates it; the
// _xbarbench harness still calls yield.LaneRunner{}.Run.
//
// Deprecated: call Run.
type LaneRunner struct{}

// Run calls the package-level Run.
func (LaneRunner) Run(ctx context.Context, spec Spec, emit func(DieResult)) error {
	return Run(ctx, spec, emit)
}
