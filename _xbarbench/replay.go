package main

import (
	"context"
	"time"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/pcircuit"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xrand"
	"nanoxbar/internal/yield"
)

// The replays time layers the spans cannot reach, by calling their
// public functions on the workload's own inputs after the window, one
// goroutine, nothing else running.

// verifyReps repeats the (sub-microsecond) verify so the timer
// resolution does not dominate it.
const verifyReps = 8

// replaySynth times the four-terminal synthesis sub-stages the way
// core.SynthesizeCtx runs them: the dual method (whose covers are timed
// again on their own), then the p-circuit search and the D-reduction
// under the same conditions core applies. It cycles through fns until
// budget is spent, at least once through the first function, and
// returns microseconds per function.
func replaySynth(fns []truthtab.TT, budget time.Duration) map[string]float64 {
	opts := core.DefaultOptions()
	var covers, dual, pc, dr, verify time.Duration
	n := 0
	deadline := time.Now().Add(budget)
	for len(fns) > 0 && (n == 0 || time.Now().Before(deadline)) {
		f := fns[n%len(fns)]
		n++
		t := time.Now()
		latsynth.Covers(f, opts.Synth)
		covers += time.Since(t)

		t = time.Now()
		best, err := latsynth.DualMethod(f, opts.Synth)
		dual += time.Since(t)
		if err != nil {
			continue
		}
		bestL := best.Lattice
		if sup := len(f.Support()); opts.TryPCircuit && sup >= 2 && sup <= 8 {
			t = time.Now()
			res, err := pcircuit.Best(f, pcircuit.Options{Synth: opts.Synth, Mode: pcircuit.WithIntersection})
			pc += time.Since(t)
			if err == nil && res.Area() < bestL.Area() {
				bestL = res.Lattice
			}
		}
		if opts.TryDReduce && !f.IsZero() {
			t = time.Now()
			res, err := dreduce.Synthesize(f, opts.Synth)
			dr += time.Since(t)
			if err == nil && res.Area() < bestL.Area() {
				bestL = res.Lattice
			}
		}
		imp := &core.Implementation{Tech: core.FourTerminal, Rows: bestL.R, Cols: bestL.C, Lattice: bestL}
		t = time.Now()
		for k := 0; k < verifyReps; k++ {
			imp.Verify(f)
		}
		verify += time.Since(t) / verifyReps
	}
	if n == 0 {
		return map[string]float64{}
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	return map[string]float64{
		"latsynth.covers_us":    per(covers),
		"latsynth.dual_us":      per(dual),
		"pcircuit.best_us":      per(pc),
		"dreduce.synthesize_us": per(dr),
		"core.verify_us":        per(verify),
	}
}

// maxDrawGroups bounds the 64-die groups drawn per spec by the draw
// replay.
const maxDrawGroups = 4

// replayYield times yield.LaneRunner.Run per sweep on the served specs
// (single-threaded) and LanePlanes.DrawLane per 64-die group, seeded as
// the runner seeds it: one xrand source reseeded with xrand.SubSeed per
// die. It cycles through specs until budget is spent, at least once.
func replayYield(specs []yield.Spec, budget time.Duration) map[string]float64 {
	var run, draw time.Duration
	runs, groups := 0, 0
	src, rng := xrand.New()
	deadline := time.Now().Add(budget)
	for len(specs) > 0 && (runs == 0 || time.Now().Before(deadline)) {
		spec := specs[runs%len(specs)]
		runs++
		t := time.Now()
		// The spec comes from a request the server answered, so Run
		// cannot fail; its outcome was checked against the oracle.
		_ = yield.LaneRunner{}.Run(context.Background(), spec, func(yield.DieResult) {})
		run += time.Since(t)

		lp := defect.NewLanePlanes(spec.ChipSize, spec.ChipSize)
		for g := 0; g < maxDrawGroups && g*64 < spec.Dies; g++ {
			t = time.Now()
			lp.Reset()
			for l := 0; l < 64 && g*64+l < spec.Dies; l++ {
				src.Seed(xrand.SubSeed(spec.Seed, g*64+l))
				lp.DrawLane(l, spec.Params, rng)
			}
			draw += time.Since(t)
			groups++
		}
	}
	if runs == 0 {
		return nil
	}
	return map[string]float64{
		"yield.run_us":   float64(run) / 1e3 / float64(runs),
		"defect.draw_us": float64(draw) / 1e3 / float64(groups),
	}
}

// engineMaxAttempts is the engine's default self-mapping budget, which
// the benchmark's requests leave unset.
const engineMaxAttempts = 200

// yieldSpec rebuilds the spec the engine ran for a served yield op.
func yieldSpec(o op, app *bism.App) yield.Spec {
	return yield.Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: o.chipSize,
		Params: defect.UniformCrosspoint(o.density), Dies: o.chips, Seed: o.seed,
		MaxAttempts: engineMaxAttempts, Parallel: 1,
	}
}
