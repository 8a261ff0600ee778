package yield

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// runScalar is the test-only reference for Run: the identical per-die
// algorithm — same seeds, same candidate schedule, same demotion — with
// every check running on one scalar defect map. The property suite
// holds Run bit-for-bit to it.
func runScalar(ctx context.Context, spec Spec, emit func(DieResult)) error {
	if err := spec.validate(); err != nil {
		return err
	}
	par := spec.parallel()
	if par > spec.Dies {
		par = spec.Dies
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
			chip := defect.NewMap(spec.ChipSize, spec.ChipSize)
			src, rng := xrand.New()
			for {
				select {
				case <-done:
					return
				default:
				}
				die := int(next.Add(1)) - 1
				if die >= spec.Dies {
					return
				}
				dr := runScalarDie(spec, cands, die, chip, src, rng)
				emitMu.Lock()
				emit(dr)
				emitMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// runScalarDie executes the per-die algorithm on scalar state.
func runScalarDie(spec Spec, cands []*bism.Mapping, die int, chip *defect.Map, src *xrand.SplitMix, rng *rand.Rand) (dr DieResult) {
	defer func() {
		if r := recover(); r != nil {
			dr = DieResult{Die: die, Err: fmt.Errorf("yield: panic mapping die %d: %v", die, r)}
		}
	}()
	src.Seed(xrand.SubSeed(spec.Seed, die))
	defect.RandomInto(chip, spec.Params, rng)
	ch := bism.NewChip(chip)
	for k, cand := range cands {
		if bism.Validate(ch, spec.App, cand) {
			return DieResult{Die: die, Mapping: cand, Stats: fastStats(k), Fast: true}
		}
	}
	m, st := spec.Scheme.Map(ch, spec.App, spec.MaxAttempts, rng)
	st.Configs += len(cands)
	st.BISTCalls += len(cands)
	return DieResult{Die: die, Mapping: m, Stats: st}
}
