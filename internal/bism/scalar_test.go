package bism

import "nanoxbar/internal/defect"

// checkScalar is the per-crosspoint reference implementation of the
// BIST/BISD session. The property tests pin the mask-based check
// against it.
func (ch *Chip) checkScalar(app *App, m *Mapping) (ok bool, bad map[Resource]bool) {
	bad = make(map[Resource]bool)
	d := ch.defects
	selRow := make(map[int]bool, app.R)
	for _, pr := range m.Rows {
		selRow[pr] = true
	}
	selCol := make(map[int]bool, app.C)
	for _, pc := range m.Cols {
		selCol[pc] = true
	}
	for i, pr := range m.Rows {
		if d.RowBroken(pr) {
			bad[Resource{true, pr}] = true
		}
		for j, pc := range m.Cols {
			k := d.At(pr, pc)
			if app.Used[i][j] && k == defect.StuckOpen {
				bad[Resource{true, pr}] = true
				bad[Resource{false, pc}] = true
			}
			if !app.Used[i][j] && k == defect.StuckClosed {
				bad[Resource{true, pr}] = true
				bad[Resource{false, pc}] = true
			}
		}
	}
	for _, pc := range m.Cols {
		if d.ColBroken(pc) {
			bad[Resource{false, pc}] = true
		}
	}
	for r := 0; r+1 < ch.N; r++ {
		if d.RowBridge(r) && selRow[r] && selRow[r+1] {
			bad[Resource{true, r}] = true
			bad[Resource{true, r + 1}] = true
		}
	}
	for c := 0; c+1 < ch.N; c++ {
		if d.ColBridge(c) && selCol[c] && selCol[c+1] {
			bad[Resource{false, c}] = true
			bad[Resource{false, c + 1}] = true
		}
	}
	return len(bad) == 0, bad
}
