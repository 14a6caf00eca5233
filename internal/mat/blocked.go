package mat

import "fmt"

// blockJ is the register-tile width of the blocked a·bᵀ kernel: four
// output columns are produced per inner loop, each in its own scalar
// accumulator, so the k-loop touches four contiguous rows of b while the
// accumulators stay in registers instead of round-tripping through the
// output row on every k.
const blockJ = 4

// MulTBBlockedInto stores a·bᵀ into dst (a.Rows×b.Rows) and returns dst,
// overwriting dst — MulTBInto through a register-tiled kernel. It panics
// on dimension mismatch.
//
// Bit-identical to MulTBInto for every input (±Inf and signed zeros
// included; NaN results agree on NaN-ness, though payload bits may differ
// since those track the compiler's FMA-fusion choices): each output
// element is the same sum of the same products accumulated over k in the
// same ascending order with the same skip on zero a-elements; the tiling
// only changes which *other* elements are computed between two
// accumulations of one element, never the element's own accumulation
// order. Tile-edge columns (b.Rows not a multiple of the tile width) run
// through a scalar remainder loop with the identical per-element order,
// so no shape is special.
//
// The naive kernel re-reads and re-writes the whole output row once per k
// (b.Rows loads + stores each time); the blocked kernel keeps four
// accumulators in registers across the entire k-loop and reads b
// row-contiguously, which is what keeps the (61·N)-row 2-D sweep matrices
// memory-bandwidth friendly.
func MulTBBlockedInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTBBlockedInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	n := b.Rows
	kN := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+blockJ <= n; j += blockJ {
			// Slice each b row to len(arow) so the compiler can elide the
			// bounds checks inside the k-loop.
			b0 := b.Data[j*kN : j*kN+kN][:len(arow)]
			b1 := b.Data[(j+1)*kN : (j+1)*kN+kN][:len(arow)]
			b2 := b.Data[(j+2)*kN : (j+2)*kN+kN][:len(arow)]
			b3 := b.Data[(j+3)*kN : (j+3)*kN+kN][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j] = s0
			orow[j+1] = s1
			orow[j+2] = s2
			orow[j+3] = s3
		}
		for ; j < n; j++ {
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
	return dst
}
