// Package redundancy implements the runtime ("lifetime") fault
// tolerance of the paper's Section IV: transient-error masking through
// modular redundancy, and permanent-fault repair through periodic
// retest plus self-remapping — "fault tolerance to ensure the lifetime
// reliability (for errors during normal operation)".
//
// Transient faults flip individual switch states for a single
// evaluation; permanent faults accumulate over the chip's lifetime.
// Both are modeled on the lattice implementation: the abundance of
// programmable crossbar resources (the property the paper proposes to
// exploit) pays for R-fold modular redundancy with majority voting,
// and for spare area that the greedy self-mapping can migrate onto
// when a permanent fault lands inside the active region.
//
// The Monte Carlo machinery is bit-parallel: an MC packs 64 independent
// trials into each uint64 — per-site conduction masks over 64 random
// assignments, upset masks drawn with the defect package's sparse
// geometric-gap sampler, percolation through the shared word-wide
// engine of internal/lattice, and N-modular majority votes taken with
// bit-sliced counters — so ErrorRates costs one percolation per 64
// trials instead of one graph walk per trial.
package redundancy

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"nanoxbar/internal/bitlane"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/lattice"
)

// MC is a reusable bit-parallel transient Monte Carlo evaluator: 64
// independent trials per uint64 lane. Load the lattice with a batch of
// 64 assignments, then evaluate fault-free (Eval64) or under
// independent per-site upsets (TransientEval64) — each call is one
// word-wide percolation. An MC is not safe for concurrent use; give
// each goroutine its own.
type MC struct {
	r, c    int
	ev      lattice.Evaluator
	base    []uint64 // per-site fault-free conduction masks
	on      []uint64 // per-site masks with upsets applied
	varBits [64]uint64
}

// NewMC returns an empty evaluator; scratch grows to the largest
// lattice seen.
func NewMC() *MC { return &MC{} }

// Load prepares per-site conduction masks of l over the 64 assignments
// in a: bit t of site (r,c)'s mask is l.At(r,c).On(a[t]).
func (mc *MC) Load(l *lattice.Lattice, a *[64]uint64) {
	mc.r, mc.c = l.R, l.C
	sites := l.R * l.C
	if cap(mc.base) < sites {
		mc.base = make([]uint64, sites)
		mc.on = make([]uint64, sites)
	}
	mc.base = mc.base[:sites]
	mc.on = mc.on[:sites]
	// One shot transposes assignment-major words into variable-major
	// lane words: varBits[v] bit t = a[t] bit v. The shared 64×64 block
	// transpose costs a few hundred word ops — cheaper than the 64-step
	// scalar gather it replaces even when only two variables occur.
	mc.varBits = *a
	bitlane.Transpose64(&mc.varBits)
	for r := 0; r < l.R; r++ {
		for c := 0; c < l.C; c++ {
			s := l.At(r, c)
			var m uint64
			switch s.Kind {
			case lattice.Const0:
			case lattice.Const1:
				m = ^uint64(0)
			default:
				m = mc.varBits[uint(s.Var)]
				if s.Neg {
					m = ^m
				}
			}
			mc.base[r*l.C+c] = m
		}
	}
}

// Eval64 returns the fault-free evaluation of the loaded assignments:
// bit t is l.Eval(a[t]).
func (mc *MC) Eval64() uint64 {
	return mc.ev.PercolateMasks(mc.r, mc.c, mc.base)
}

// TransientEval64 evaluates one batch of 64 independent transient-upset
// trials over the loaded assignments: every (site, trial) switch state
// flips independently with probability p — upset bits drawn by the
// sparse sampler over the sites×64 lane space — and bit t of the result
// is the trial-t output.
func (mc *MC) TransientEval64(p float64, rng *rand.Rand) uint64 {
	copy(mc.on, mc.base)
	on := mc.on
	defect.VisitBernoulli(rng, p, len(on)*64, func(i int) {
		on[i>>6] ^= 1 << uint(i&63)
	})
	return mc.ev.PercolateMasks(mc.r, mc.c, on)
}

// TransientEval64 is the one-shot convenience over MC: 64 trials of l
// at assignments a under upset probability p.
func TransientEval64(l *lattice.Lattice, a *[64]uint64, p float64, rng *rand.Rand) uint64 {
	mc := NewMC()
	mc.Load(l, a)
	return mc.TransientEval64(p, rng)
}

// maxNMR bounds the bit-sliced vote counter (7 slices count to 127).
const maxNMR = 127

// majorityGE returns the per-lane indicator of cnt ≥ n/2+1 for a
// bit-sliced counter over n votes: ripple-carry addition of the
// constant 2^m - threshold, whose carry out of bit m-1 is exactly the
// comparison.
func majorityGE(cnt []uint64, n int) uint64 {
	t := n/2 + 1
	m := bits.Len(uint(n))
	k := uint64(1)<<uint(m) - uint64(t)
	var carry uint64
	for j := 0; j < m; j++ {
		var kj uint64
		if k>>uint(j)&1 == 1 {
			kj = ^uint64(0)
		}
		carry = cnt[j]&kj | cnt[j]&carry | kj&carry
	}
	return carry
}

// ErrorRates Monte-Carlo estimates the per-evaluation output error
// probability of the bare lattice and of its n-modular version under
// transient upset probability p, over random on/off assignments of an
// nVars-variable function. Trials run 64 to the word: each batch draws
// 64 random assignments, evaluates them fault-free for the reference,
// once upset for the bare estimate, and nmr more times for the
// majority-voted estimate, with the votes accumulated in bit-sliced
// counters.
func ErrorRates(l *lattice.Lattice, nVars int, nmr int, p float64, trials int, rng *rand.Rand) (bare, protected float64) {
	if nmr < 1 || nmr%2 == 0 {
		panic(fmt.Sprintf("redundancy: modular redundancy needs odd n, got %d", nmr))
	}
	if nmr > maxNMR {
		panic(fmt.Sprintf("redundancy: modular redundancy n %d exceeds %d", nmr, maxNMR))
	}
	if trials < 1 {
		return 0, 0
	}
	mc := NewMC()
	size := uint64(1) << uint(nVars)
	var a [64]uint64
	bareErr, protErr := 0, 0
	for done := 0; done < trials; done += 64 {
		lanes := trials - done
		laneMask := ^uint64(0)
		if lanes < 64 {
			laneMask = uint64(1)<<uint(lanes) - 1
		}
		for t := range a {
			a[t] = rng.Uint64() % size
		}
		mc.Load(l, &a)
		want := mc.Eval64()
		bareErr += bits.OnesCount64((mc.TransientEval64(p, rng) ^ want) & laneMask)
		var cnt [7]uint64
		for k := 0; k < nmr; k++ {
			carry := mc.TransientEval64(p, rng)
			for j := 0; carry != 0; j++ {
				nc := cnt[j] & carry
				cnt[j] ^= carry
				carry = nc
			}
		}
		protErr += bits.OnesCount64((majorityGE(cnt[:], nmr) ^ want) & laneMask)
	}
	return float64(bareErr) / float64(trials), float64(protErr) / float64(trials)
}

// LifetimeParams configure the permanent-fault aging simulation.
type LifetimeParams struct {
	ChipN       int     // physical array dimension
	FaultsPerEp float64 // expected new permanent stuck faults per epoch
	Epochs      int     // simulated lifetime length
	RetestEvery int     // self-test period (epochs); 0 disables repair
	RemapBudget int     // configurations the self-repair may try
	Seed        int64
}

// LifetimeResult reports an aging run.
type LifetimeResult struct {
	EpochsAlive int  // epochs the system produced correct outputs
	Remaps      int  // successful self-repairs
	DiedOfChip  bool // chip exhausted (no healthy region left)
}

// Lifetime ages a chip carrying the given logical lattice: each epoch
// sprinkles Poisson-distributed permanent stuck faults on random
// crosspoints; the lattice occupies a region chosen by the self-mapper.
// Without retest (RetestEvery 0) the system dies at the first fault
// that lands inside its active, function-relevant sites; with periodic
// retest the repair controller detects the hit and migrates the
// lattice to a healthy region, extending the lifetime until the chip
// runs out of clean area.
//
// The permanent-fault state is a row-major bitset and the lattice's
// function-relevant sites are per-row need masks, so a region health
// check is a handful of shifted word intersections instead of an R×C
// site walk — the region scan after every epoch, and the full-chip
// placement scan after every hit, both ride on it. The fault stream is
// drawn exactly as the scalar version drew it, so results are
// bit-for-bit reproducible across the representations for a given seed.
func Lifetime(l *lattice.Lattice, nVars int, p LifetimeParams) LifetimeResult {
	rng := rand.New(rand.NewSource(p.Seed))
	if p.ChipN < l.R || p.ChipN < l.C {
		panic("redundancy: chip smaller than lattice")
	}
	// Permanent fault state: bit set = crosspoint dead (stuck). W words
	// per chip row.
	W := (p.ChipN + 63) >> 6
	dead := make([]uint64, p.ChipN*W)
	// Need masks: bit j of needs[i*wl+j>>6] set iff lattice site (i,j)
	// requires a live crosspoint (constant-0 sites need no programmable
	// switch).
	wl := (l.C + 63) >> 6
	needs := make([]uint64, l.R*wl)
	for i := 0; i < l.R; i++ {
		for j := 0; j < l.C; j++ {
			if l.At(i, j).Kind != lattice.Const0 {
				needs[i*wl+j>>6] |= 1 << uint(j&63)
			}
		}
	}
	regionHealthy := func(rowOff, colOff int) bool {
		s, base := uint(colOff&63), colOff>>6
		for i := 0; i < l.R; i++ {
			drow := dead[(rowOff+i)*W : (rowOff+i+1)*W]
			for k := 0; k < wl; k++ {
				win := drow[base+k] >> s
				if s != 0 && base+k+1 < W {
					win |= drow[base+k+1] << (64 - s)
				}
				if win&needs[i*wl+k] != 0 {
					return false
				}
			}
		}
		return true
	}
	// Current placement.
	rowOff, colOff := 0, 0
	place := func() bool {
		// Greedy scan for a region whose used sites are healthy.
		for ro := 0; ro+l.R <= p.ChipN; ro++ {
			for co := 0; co+l.C <= p.ChipN; co++ {
				if regionHealthy(ro, co) {
					rowOff, colOff = ro, co
					return true
				}
			}
		}
		return false
	}
	if !place() {
		return LifetimeResult{DiedOfChip: true}
	}
	var res LifetimeResult
	poisson := func(lambda float64) int {
		// Knuth's method; lambda is small in the sweeps used here.
		threshold := math.Exp(-lambda)
		L := 1.0
		for k := 0; ; k++ {
			L *= rng.Float64()
			if L < threshold {
				return k
			}
		}
	}
	for ep := 0; ep < p.Epochs; ep++ {
		for k := poisson(p.FaultsPerEp); k > 0; k-- {
			idx := rng.Intn(p.ChipN * p.ChipN)
			r, c := idx/p.ChipN, idx%p.ChipN
			dead[r*W+c>>6] |= 1 << uint(c&63)
		}
		if regionHealthy(rowOff, colOff) {
			res.EpochsAlive++
			continue
		}
		// Fault inside the active region. Without retest the system
		// silently fails from here on; with retest, repair at the next
		// test epoch.
		if p.RetestEvery == 0 {
			return res
		}
		if (ep+1)%p.RetestEvery != 0 {
			continue // fault latent until the next scheduled test
		}
		if !place() {
			res.DiedOfChip = true
			return res
		}
		res.Remaps++
		res.EpochsAlive++
	}
	return res
}
