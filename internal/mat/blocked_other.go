//go:build !amd64

package mat

// mulTBSIMD has no SIMD kernel on this architecture: every column runs
// through the portable tile.
func mulTBSIMD(dst, a, b *Matrix, panels *[]float64) int { return 0 }
