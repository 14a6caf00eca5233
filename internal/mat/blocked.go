package mat

import "fmt"

// blockJ is the register-tile width of the portable a·bᵀ kernel: four
// output columns of two rows are produced per inner loop, each in its own
// scalar accumulator, so the k-loop touches four contiguous rows of b
// (shared by both rows) while the eight accumulators stay in registers
// instead of round-tripping through the output row on every k.
const blockJ = 4

// MulTBBlockedInto stores a·bᵀ into dst (a.Rows×b.Rows) and returns dst,
// overwriting dst — MulTBInto through a tiled kernel. It panics on
// dimension mismatch. It is the single forward kernel of the nn package,
// for training and inference alike.
//
// On amd64 the full 8-column blocks run through a packed-SSE2 kernel
// whose lanes span output columns; it reads a k-major copy of b that each
// call stages into *panels (grow-only, so a caller that keeps the slice
// allocates only on first use). The staging is per call, so the kernel
// always reads b's live values. The remaining columns, and every column
// on other architectures, run through the portable 2×4 Go tile.
//
// Bit-identical to MulTBInto for every input (±Inf, subnormals and signed
// zeros included; NaN results agree on NaN-ness, though payload bits may
// differ since those track operand order and the compiler's FMA-fusion
// choices): each output element is the same sum of the same products
// accumulated over k in the same ascending order from +0 with the same
// skip on zero a-elements, one rounded multiply and one rounded add per
// step. The tiling and the SIMD lanes only change which *other* elements
// are computed between two accumulations of one element, never the
// element's own accumulation order.
func MulTBBlockedInto(dst, a, b *Matrix, panels *[]float64) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTBBlockedInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	mulTBGo(dst, a, b, mulTBSIMD(dst, a, b, panels))
	return dst
}

// mulTBGo is the portable kernel: it stores columns [j0, b.Rows) of a·bᵀ
// into dst, two rows by four columns at a time, with scalar edges for an
// odd last row and for column counts that are not a multiple of blockJ.
func mulTBGo(dst, a, b *Matrix, j0 int) {
	n := b.Rows
	kN := b.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*kN : (i+1)*kN]
		a1 := a.Data[(i+1)*kN : (i+2)*kN][:len(a0)]
		o0 := dst.Data[i*n : (i+1)*n]
		o1 := dst.Data[(i+1)*n : (i+2)*n]
		j := j0
		for ; j+blockJ <= n; j += blockJ {
			// Slice each b row to len(a0) so the compiler can elide the
			// bounds checks inside the k-loop.
			b0 := b.Data[j*kN : j*kN+kN][:len(a0)]
			b1 := b.Data[(j+1)*kN : (j+1)*kN+kN][:len(a0)]
			b2 := b.Data[(j+2)*kN : (j+2)*kN+kN][:len(a0)]
			b3 := b.Data[(j+3)*kN : (j+3)*kN+kN][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				w0, w1, w2, w3 := b0[k], b1[k], b2[k], b3[k]
				if x0 != 0 {
					s00 += x0 * w0
					s01 += x0 * w1
					s02 += x0 * w2
					s03 += x0 * w3
				}
				if x1 != 0 {
					s10 += x1 * w0
					s11 += x1 * w1
					s12 += x1 * w2
					s13 += x1 * w3
				}
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b.Data[j*kN : j*kN+kN][:len(a0)]
			var s0, s1 float64
			for k, w := range brow {
				if x0 := a0[k]; x0 != 0 {
					s0 += x0 * w
				}
				if x1 := a1[k]; x1 != 0 {
					s1 += x1 * w
				}
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < a.Rows {
		arow := a.Data[i*kN : (i+1)*kN]
		orow := dst.Data[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			brow := b.Data[j*kN : j*kN+kN][:len(arow)]
			var s float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}
