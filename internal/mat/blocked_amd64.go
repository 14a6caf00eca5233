package mat

// panelW is the column width of one SSE2 block: four XMM accumulators of
// two float64 lanes per output row.
const panelW = 8

// mulPanels2 computes the full 8-column blocks of two output rows from
// staged panels; see blocked_amd64.s.
//
//go:noescape
func mulPanels2(o0, o1, a0, a1, p []float64)

// mulTBSIMD stores the full panelW-column blocks of a·bᵀ into dst and
// returns the first column it did not compute. Rows run in pairs so both
// share each panel load; an odd last row is passed as both rows of its
// pair, writing the same values twice.
func mulTBSIMD(dst, a, b *Matrix, panels *[]float64) int {
	nb := b.Rows / panelW
	if nb == 0 {
		return 0
	}
	w := nb * panelW
	p := stagePanels(panels, b, nb)
	for i := 0; i < a.Rows; i += 2 {
		i1 := min(i+1, a.Rows-1)
		mulPanels2(dst.Row(i)[:w], dst.Row(i1)[:w], a.Row(i), a.Row(i1), p)
	}
	return w
}

// stagePanels writes the first nb·panelW rows of b into *buf k-major, one
// contiguous b.Cols×panelW panel per block, growing *buf only when it is
// too small, and returns the staged slice.
func stagePanels(buf *[]float64, b *Matrix, nb int) []float64 {
	k := b.Cols
	size := nb * panelW * k
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	p := (*buf)[:size]
	for jb := 0; jb < nb; jb++ {
		panel := p[jb*panelW*k : (jb+1)*panelW*k]
		for c := 0; c < panelW; c++ {
			for kk, v := range b.Row(jb*panelW + c) {
				panel[kk*panelW+c] = v
			}
		}
	}
	return p
}
