// Package bism implements the built-in self-mapping (BISM) schemes of
// Section IV-B of the DATE'17 paper: blind, greedy, and hybrid mapping
// of an application configuration onto a partially defective crossbar.
//
// The mapper assigns each logical row/column of the application to a
// distinct physical row/column of the chip. A mapping is valid when
//
//   - every physical crosspoint carrying a used (closed) switch is not
//     stuck open and its wires are intact,
//   - every physical crosspoint at the intersection of selected lines
//     that must stay open is not stuck closed, and
//   - no bridge joins two selected adjacent physical lines.
//
// The chip can only be observed through its built-in test machinery:
// BIST answers pass/fail for the current configuration
// (application-dependent test), and BISD additionally names the
// defective physical resources used by the failing configuration. The
// three schemes differ in how they spend those two primitives, exactly
// as the paper describes: blind re-randomizes after every failed BIST,
// greedy invokes BISD and re-maps only the broken lines, and hybrid
// starts blind and falls back to greedy after a retry budget.
//
// The test machinery itself runs on the defect map's bitset word
// planes: a BIST/BISD session intersects the application's used-column
// masks against the chip's stuck-open/stuck-closed planes 64 physical
// columns per operation, accumulating the diagnosis in a reusable
// bad-line bitset, and every mapper draws its permutations and spare
// lines from pooled scratch — a repair attempt performs zero heap
// allocations.
package bism

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"nanoxbar/internal/defect"
)

// App is the application configuration to be realized: a logical R×C
// crosspoint closure matrix.
type App struct {
	R, C int
	Used [][]bool // Used[i][j]: logical crosspoint (i,j) must close

	// usedIdx[i] lists the used j's of logical row i — precomputed by
	// NewApp so a BIST session only touches closed switches when
	// scattering the application into physical column space.
	usedIdx [][]int32
}

// NewApp builds an application from a closure matrix.
func NewApp(used [][]bool) *App {
	if len(used) == 0 || len(used[0]) == 0 {
		panic("bism: empty application")
	}
	a := &App{R: len(used), C: len(used[0]), Used: used}
	for _, row := range used {
		if len(row) != a.C {
			panic("bism: ragged application matrix")
		}
	}
	a.usedIdx = make([][]int32, a.R)
	for i, row := range used {
		for j, u := range row {
			if u {
				a.usedIdx[i] = append(a.usedIdx[i], int32(j))
			}
		}
	}
	return a
}

// RandomApp draws an application whose crosspoints close independently
// with the given density.
func RandomApp(r, c int, density float64, rng *rand.Rand) *App {
	used := make([][]bool, r)
	for i := range used {
		used[i] = make([]bool, c)
		for j := range used[i] {
			used[i][j] = rng.Float64() < density
		}
	}
	return NewApp(used)
}

// Mapping assigns logical lines to physical lines (injectively).
type Mapping struct {
	Rows []int // Rows[i] = physical row of logical row i
	Cols []int
}

// clone returns an independent copy — mappers hand this out on success
// so the pooled scratch mapping never escapes.
func (m *Mapping) clone() *Mapping {
	return &Mapping{
		Rows: append([]int(nil), m.Rows...),
		Cols: append([]int(nil), m.Cols...),
	}
}

// Chip is the physical array under self-mapping: the defect map is
// hidden from the algorithms, which may only call BIST and BISD. NewChip
// snapshots word-plane views of the map so a test session is pure mask
// arithmetic.
type Chip struct {
	N       int
	defects *defect.Map

	rowBroken []uint64 // views into the defect map's wire bitsets
	colBroken []uint64
	rowBridge []uint64
	colBridge []uint64
}

// NewChip wraps a defect map as a testable chip.
func NewChip(m *defect.Map) *Chip {
	if m.R != m.C {
		panic("bism: chip must be square")
	}
	return &Chip{
		N: m.R, defects: m,
		rowBroken: m.RowBrokenWords(), colBroken: m.ColBrokenWords(),
		rowBridge: m.RowBridgeWords(), colBridge: m.ColBridgeWords(),
	}
}

// Resource identifies a physical line reported defective by BISD.
type Resource struct {
	IsRow bool
	Index int // physical line index
}

func (r Resource) String() string {
	if r.IsRow {
		return fmt.Sprintf("row%d", r.Index)
	}
	return fmt.Sprintf("col%d", r.Index)
}

// BadSet is a BISD diagnosis: bitsets over the physical rows and
// columns involved in violations. It is reused across test sessions —
// the allocation-free replacement for the map[Resource]bool diagnosis.
type BadSet struct {
	rows, cols []uint64
}

func (b *BadSet) grow(w int) {
	if cap(b.rows) < w {
		b.rows = make([]uint64, w)
		b.cols = make([]uint64, w)
	}
	b.rows = b.rows[:w]
	b.cols = b.cols[:w]
	for i := 0; i < w; i++ {
		b.rows[i] = 0
		b.cols[i] = 0
	}
}

// Row reports whether physical row r is diagnosed bad.
func (b *BadSet) Row(r int) bool { return b.rows[r>>6]>>uint(r&63)&1 == 1 }

// Col reports whether physical column c is diagnosed bad.
func (b *BadSet) Col(c int) bool { return b.cols[c>>6]>>uint(c&63)&1 == 1 }

// Resources expands the diagnosis into a Resource list (debug and test
// convenience; allocates).
func (b *BadSet) Resources() []Resource {
	var res []Resource
	for i := range b.rows {
		for w := b.rows[i]; w != 0; w &= w - 1 {
			res = append(res, Resource{true, i<<6 + bits.TrailingZeros64(w)})
		}
	}
	for i := range b.cols {
		for w := b.cols[i]; w != 0; w &= w - 1 {
			res = append(res, Resource{false, i<<6 + bits.TrailingZeros64(w)})
		}
	}
	return res
}

// scratch is the pooled per-session working set of the mappers: the
// current mapping, selection and diagnosis bitsets, the application
// scattered into physical column space, and permutation/spare buffers.
type scratch struct {
	n, w int

	selRow, selCol []uint64 // selected physical lines
	usedPhys       []uint64 // appR×w: used physical columns per logical row
	bad            BadSet

	perm       []int
	rows, cols []int // backing for the working mapping
	spare      []int
	wm         Mapping // the working mapping, aliasing rows/cols
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n, appR int) *scratch {
	s := scratchPool.Get().(*scratch)
	w := (n + 63) >> 6
	s.n, s.w = n, w
	if cap(s.selRow) < w {
		s.selRow = make([]uint64, w)
		s.selCol = make([]uint64, w)
	}
	s.selRow, s.selCol = s.selRow[:w], s.selCol[:w]
	if cap(s.usedPhys) < appR*w {
		s.usedPhys = make([]uint64, appR*w)
	}
	s.usedPhys = s.usedPhys[:appR*w]
	if cap(s.perm) < n {
		s.perm = make([]int, n)
		s.spare = make([]int, 0, n)
	}
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// mapping returns the scratch-backed working mapping sized for app.
func (s *scratch) mapping(app *App) *Mapping {
	if cap(s.rows) < app.R {
		s.rows = make([]int, app.R)
	}
	if cap(s.cols) < app.C {
		s.cols = make([]int, app.C)
	}
	s.wm = Mapping{Rows: s.rows[:app.R], Cols: s.cols[:app.C]}
	return &s.wm
}

// randomMapping redraws m uniformly over injective line assignments
// (partial Fisher–Yates over the scratch permutation buffer).
func (s *scratch) randomMapping(n int, app *App, rng *rand.Rand, m *Mapping) {
	if app.R > n || app.C > n {
		panic(fmt.Sprintf("bism: %d×%d application exceeds %d×%d chip", app.R, app.C, n, n))
	}
	draw := func(out []int) {
		perm := s.perm[:n]
		for i := range perm {
			perm[i] = i
		}
		for i := range out {
			j := i + rng.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
			out[i] = perm[i]
		}
	}
	draw(m.Rows)
	draw(m.Cols)
}

func bitOf(w []uint64, i int) bool { return w[i>>6]>>uint(i&63)&1 == 1 }
func setBitOf(w []uint64, i int)   { w[i>>6] |= 1 << uint(i&63) }

// markBridgePairs diagnoses bridges between adjacent selected lines:
// for every bit r with bridge(r,r+1) and both lines selected, lines r
// and r+1 are marked bad. Pure word arithmetic with cross-word carries.
func markBridgePairs(bridge, sel, bad []uint64, w int) bool {
	any := false
	for k := 0; k < w; k++ {
		next := uint64(0)
		if k+1 < w {
			next = sel[k+1]
		}
		pairs := bridge[k] & sel[k] & (sel[k]>>1 | next<<63)
		if pairs != 0 {
			bad[k] |= pairs | pairs<<1
			if k+1 < w {
				bad[k+1] |= pairs >> 63
			}
			any = true
		}
	}
	return any
}

// check runs one combined BIST/BISD session over the mapped
// configuration: mask intersections of the application against the
// chip's defect word planes, 64 physical columns at a time. The
// diagnosis lands in scr.bad; check reports whether the configuration
// passed. It performs no heap allocation.
func (ch *Chip) check(app *App, m *Mapping, scr *scratch) bool {
	d, w := ch.defects, scr.w
	selRow, selCol := scr.selRow, scr.selCol
	for k := 0; k < w; k++ {
		selRow[k] = 0
		selCol[k] = 0
	}
	for _, pr := range m.Rows {
		setBitOf(selRow, pr)
	}
	for _, pc := range m.Cols {
		setBitOf(selCol, pc)
	}

	// Scatter the application into physical column space: bit pc of
	// usedPhys[i] is set iff logical crosspoint (i,j) with cols[j]=pc
	// must close.
	up := scr.usedPhys[:app.R*w]
	for k := range up {
		up[k] = 0
	}
	for i, idx := range app.usedIdx {
		row := up[i*w : (i+1)*w]
		for _, j := range idx {
			setBitOf(row, m.Cols[j])
		}
	}

	scr.bad.grow(w)
	badRows, badCols := scr.bad.rows, scr.bad.cols
	bad := false

	for i, pr := range m.Rows {
		if bitOf(ch.rowBroken, pr) {
			setBitOf(badRows, pr)
			bad = true
		}
		open, closed := d.OpenRow(pr), d.ClosedRow(pr)
		row := up[i*w : (i+1)*w]
		rowBad := false
		for k := 0; k < w; k++ {
			// Used switches on stuck-open crosspoints, unused selected
			// intersections on stuck-closed ones.
			v := row[k]&open[k] | (selCol[k]&^row[k])&closed[k]
			if v != 0 {
				badCols[k] |= v
				rowBad = true
			}
		}
		if rowBad {
			setBitOf(badRows, pr)
			bad = true
		}
	}
	for k := 0; k < w; k++ {
		if v := selCol[k] & ch.colBroken[k]; v != 0 {
			badCols[k] |= v
			bad = true
		}
	}
	if markBridgePairs(ch.rowBridge, selRow, badRows, w) {
		bad = true
	}
	if markBridgePairs(ch.colBridge, selCol, badCols, w) {
		bad = true
	}
	return !bad
}

// Check runs one BIST+BISD session against the mapping and returns the
// diagnosis as a Resource list — the debug/test convenience over the
// internal allocation-free session.
func (ch *Chip) Check(app *App, m *Mapping) (ok bool, bad []Resource) {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	if ch.check(app, m, scr) {
		return true, nil
	}
	return false, scr.bad.Resources()
}

// Stats accounts the self-mapping effort, the cost measures compared in
// experiment E7.
type Stats struct {
	Configs   int  // configurations programmed into the crossbar
	BISTCalls int  // application-dependent test sessions
	BISDCalls int  // diagnosis sessions
	Success   bool // a defect-free mapping was found
}

// Cost converts the effort into the abstract cost model: a BIST session
// costs 1, a BISD session costs diagCost (diagnosis applies the
// logarithmic configuration set, so diagCost > 1).
func (s Stats) Cost(diagCost float64) float64 {
	return float64(s.BISTCalls) + diagCost*float64(s.BISDCalls)
}

// Mapper is one self-mapping scheme.
type Mapper interface {
	Name() string
	// Map attempts to find a valid mapping within maxAttempts
	// configurations.
	Map(ch *Chip, app *App, maxAttempts int, rng *rand.Rand) (*Mapping, Stats)
}

// Blind BISM: re-randomize the whole configuration after every failed
// application-dependent BIST. No diagnosis at all — fast and simple at
// low defect densities, hopeless at high ones.
type Blind struct{}

// Name implements Mapper.
func (Blind) Name() string { return "blind" }

// Map implements Mapper.
func (Blind) Map(ch *Chip, app *App, maxAttempts int, rng *rand.Rand) (*Mapping, Stats) {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	var st Stats
	m := scr.mapping(app)
	for st.Configs < maxAttempts {
		scr.randomMapping(ch.N, app, rng, m)
		st.Configs++
		st.BISTCalls++
		if ch.check(app, m, scr) {
			st.Success = true
			return m.clone(), st
		}
	}
	return nil, st
}

// Greedy BISM: after a failed BIST, run BISD and replace only the
// physical lines reported defective with fresh unused ones. Effective at
// high defect densities where blind retries almost never succeed.
type Greedy struct{}

// Name implements Mapper.
func (Greedy) Name() string { return "greedy" }

// Map implements Mapper.
func (g Greedy) Map(ch *Chip, app *App, maxAttempts int, rng *rand.Rand) (*Mapping, Stats) {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	var st Stats
	m := scr.mapping(app)
	scr.randomMapping(ch.N, app, rng, m)
	st.Configs++
	return g.repair(ch, app, m, maxAttempts, rng, st, scr)
}

// repair runs the greedy BISD/bypass loop from an existing mapping.
func (Greedy) repair(ch *Chip, app *App, m *Mapping, maxAttempts int, rng *rand.Rand, st Stats, scr *scratch) (*Mapping, Stats) {
	for {
		st.BISTCalls++
		if ch.check(app, m, scr) {
			st.Success = true
			return m.clone(), st
		}
		if st.Configs >= maxAttempts {
			return nil, st
		}
		// The failed session's diagnosis (scr.bad) is the BISD answer.
		st.BISDCalls++
		if !replaceBad(ch.N, app, m, scr, rng) {
			// Not enough spare lines to bypass: restart randomly.
			scr.randomMapping(ch.N, app, rng, m)
		}
		st.Configs++
	}
}

// replaceBad remaps every logical line currently assigned to a reported
// defective physical line onto a random unused physical line. It
// reports false when the chip has no spare lines left to try.
func replaceBad(n int, app *App, m *Mapping, scr *scratch, rng *rand.Rand) bool {
	// Spare lines: physical indices outside the current selection
	// (selRow/selCol are valid from the just-failed check), in random
	// order.
	collect := func(sel []uint64) []int {
		s := scr.spare[:0]
		for p := 0; p < n; p++ {
			if !bitOf(sel, p) {
				s = append(s, p)
			}
		}
		for i := len(s) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			s[i], s[j] = s[j], s[i]
		}
		return s
	}
	replaced := false
	spare := collect(scr.selRow)
	si := 0
	for i, pr := range m.Rows {
		if scr.bad.Row(pr) {
			if si == len(spare) {
				return replaced
			}
			m.Rows[i] = spare[si]
			si++
			replaced = true
		}
	}
	spare = collect(scr.selCol)
	si = 0
	for j, pc := range m.Cols {
		if scr.bad.Col(pc) {
			if si == len(spare) {
				return replaced
			}
			m.Cols[j] = spare[si]
			si++
			replaced = true
		}
	}
	return replaced
}

// Hybrid BISM: blind for BlindBudget configurations, then greedy. The
// paper's recommended scheme: tracks blind's low cost at low defect
// density and greedy's robustness at high density, for any local or
// global density variation.
type Hybrid struct {
	BlindBudget int // blind configurations before switching (default 4)
}

// Name implements Mapper.
func (h Hybrid) Name() string { return fmt.Sprintf("hybrid(%d)", h.budget()) }

func (h Hybrid) budget() int {
	if h.BlindBudget <= 0 {
		return 4
	}
	return h.BlindBudget
}

// Map implements Mapper.
func (h Hybrid) Map(ch *Chip, app *App, maxAttempts int, rng *rand.Rand) (*Mapping, Stats) {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	var st Stats
	budget := h.budget()
	if budget > maxAttempts {
		budget = maxAttempts
	}
	m := scr.mapping(app)
	drawn := false
	for st.Configs < budget {
		scr.randomMapping(ch.N, app, rng, m)
		drawn = true
		st.Configs++
		st.BISTCalls++
		if ch.check(app, m, scr) {
			st.Success = true
			return m.clone(), st
		}
	}
	if st.Configs >= maxAttempts || !drawn {
		return nil, st
	}
	return Greedy{}.repair(ch, app, m, maxAttempts, rng, st, scr)
}

// Validate re-checks a returned mapping against the chip (used by tests
// and by callers that want a final independent confirmation).
func Validate(ch *Chip, app *App, m *Mapping) bool {
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	return ch.check(app, m, scr)
}
