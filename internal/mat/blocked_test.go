package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// assertBitsEqual compares element bit patterns, so the sign of zero
// counts — the contract MulTBBlockedInto advertises. The one exception is
// NaN payloads: any NaN matches any NaN, because payloads are unspecified
// by IEEE 754 and shift with the compiler's FMA-fusion decisions (which
// differ between plain and -race builds), while *whether* an element is
// NaN is fully determined by the accumulation order and must agree.
func assertBitsEqual(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.IsNaN(want.Data[i]) && math.IsNaN(got.Data[i]) {
			continue
		}
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// kernelRows are the row counts the kernel tests sweep: every count up
// to 9 (odd counts leave the last row of a pair alone) plus the sweep
// shapes the predictor runs (61 and 183 rows, both odd) and 64.
var kernelRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 61, 64, 183}

// kernelCols are the column counts (b.Rows) the kernel tests sweep: 1–17
// reaches every SIMD block edge and every tail length of both the 8-wide
// SSE2 block and the 4-wide portable tile; 64 is the hidden-layer width.
var kernelCols = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}

// specialValues are the IEEE corners where an accumulation-order change
// would show: signed zeros (0 + -0 = +0 only if the skip branches agree),
// infinities (Inf - Inf = NaN depends on which products are formed), NaN
// propagation, subnormals (products that underflow or stay denormal) and
// overflow.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072e-309, -1e-310,
	1e-308, math.MaxFloat64, -math.MaxFloat64,
}

// mulTBKernels are the kernels every differential test checks against
// MulTBInto: the dispatching entry point (SSE2 blocks plus the portable
// tail on amd64) and the portable Go kernel over every column, so the
// code other architectures run is exercised on amd64 too.
var mulTBKernels = []struct {
	name string
	mul  func(dst, a, b *Matrix) *Matrix
}{
	{"MulTBBlockedInto", func(dst, a, b *Matrix) *Matrix {
		var panels []float64
		return MulTBBlockedInto(dst, a, b, &panels)
	}},
	{"mulTBGo", func(dst, a, b *Matrix) *Matrix {
		mulTBGo(dst, a, b, 0)
		return dst
	}},
}

// TestMulTBBlockedMatchesNaive sweeps shapes around the block and tile
// edges and demands bit-identity with the naive reference kernel on dirty
// destinations.
func TestMulTBBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kern := range mulTBKernels {
		for _, n := range kernelRows {
			for _, m := range kernelCols {
				for _, k := range []int{1, 2, 3, 7, 64} {
					a := randMatrix(n, k, rng)
					b := randMatrix(m, k, rng)
					want := MulTBInto(randMatrix(n, m, rng), a, b)
					got := kern.mul(randMatrix(n, m, rng), a, b)
					assertBitsEqual(t, fmt.Sprintf("%s %dx%d·(%dx%d)ᵀ", kern.name, n, k, m, k), want, got)
				}
			}
		}
	}
}

// TestMulTBBlockedSpecialValues draws both operands from the IEEE corner
// values over every block edge and tail.
func TestMulTBBlockedSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kern := range mulTBKernels {
		for trial := 0; trial < 400; trial++ {
			n := kernelRows[rng.Intn(len(kernelRows))]
			m := kernelCols[rng.Intn(len(kernelCols))]
			k := 1 + rng.Intn(6)
			a := New(n, k)
			b := New(m, k)
			for i := range a.Data {
				a.Data[i] = specialValues[rng.Intn(len(specialValues))]
			}
			for i := range b.Data {
				b.Data[i] = specialValues[rng.Intn(len(specialValues))]
			}
			want := MulTBInto(New(n, m), a, b)
			got := kern.mul(New(n, m), a, b)
			assertBitsEqual(t, fmt.Sprintf("%s(special) %dx%d·(%dx%d)ᵀ", kern.name, n, k, m, k), want, got)
		}
	}
}

// TestMulTBBlockedOverwrites pins that the kernel overwrites a dirty
// destination (including stale -0 entries) exactly like the naive
// kernel's zero-then-accumulate formulation, in both the SSE2 blocks and
// the tail.
func TestMulTBBlockedOverwrites(t *testing.T) {
	a := New(3, 3) // all zeros: every av==0 skip fires
	b := New(13, 3)
	dirty := func() *Matrix {
		d := New(3, 13)
		for i := range d.Data {
			d.Data[i] = math.Copysign(0, -1)
		}
		return d
	}
	want := MulTBInto(dirty(), a, b)
	for _, kern := range mulTBKernels {
		got := kern.mul(dirty(), a, b)
		assertBitsEqual(t, kern.name+"(zero rows)", want, got)
		for i, v := range got.Data {
			if math.Signbit(v) {
				t.Fatalf("%s: element %d kept stale -0; kernel must overwrite with +0", kern.name, i)
			}
		}
	}
}

// TestMulTBBlockedReadsLiveWeights pins that the staged panels never go
// stale: a second call on the same workspace after b changes must see the
// new values, and a larger b must grow the workspace.
func TestMulTBBlockedReadsLiveWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var panels []float64
	a := randMatrix(5, 7, rng)
	for _, m := range []int{16, 16, 24, 8} {
		b := randMatrix(m, 7, rng)
		want := MulTBInto(New(5, m), a, b)
		got := MulTBBlockedInto(New(5, m), a, b, &panels)
		assertBitsEqual(t, fmt.Sprintf("MulTBBlockedInto m=%d", m), want, got)
	}
}

// fuzzElem decodes one operand element: raw bits three times in four
// (NaNs, infinities, denormals and signed zeros all decode from raw bits,
// but zeros almost never do), an IEEE corner value otherwise.
func fuzzElem(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specialValues[rng.Intn(len(specialValues))]
	}
	return math.Float64frombits(rng.Uint64())
}

// FuzzMulTBBlockedMatchesNaive fuzzes shapes and element bits in both
// operands, demanding both kernels match the naive reference bit for bit
// (NaN payloads excepted, as in assertBitsEqual) at every column count
// 1–17 and at the predictor's 61/64/183 row counts.
func FuzzMulTBBlockedMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(4), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(7), uint8(9), uint8(3), int64(3))
	f.Add(uint8(61), uint8(64), uint8(8), int64(4))
	f.Add(uint8(255), uint8(16), uint8(16), int64(5))
	f.Fuzz(func(t *testing.T, nRaw, mRaw, kRaw uint8, seed int64) {
		n := 1 + int(nRaw)%32
		if nRaw >= 224 {
			n = []int{61, 64, 183}[int(nRaw)%3]
		}
		m := 1 + int(mRaw)%17
		if mRaw >= 238 {
			m = 64
		}
		k := 1 + int(kRaw)%16
		rng := rand.New(rand.NewSource(seed))
		a := New(n, k)
		b := New(m, k)
		for i := range a.Data {
			a.Data[i] = fuzzElem(rng)
		}
		for i := range b.Data {
			b.Data[i] = fuzzElem(rng)
		}
		want := MulTBInto(New(n, m), a, b)
		for _, kern := range mulTBKernels {
			got := kern.mul(New(n, m), a, b)
			for i := range want.Data {
				if math.IsNaN(want.Data[i]) && math.IsNaN(got.Data[i]) {
					continue
				}
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("%s shape %dx%d·(%dx%d)ᵀ element %d: got %x, naive %x",
						kern.name, n, k, m, k, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	})
}

func BenchmarkMulTB61x64(b *testing.B) {
	bench := func(b *testing.B, rows int, mul func(dst, a, bb *Matrix) *Matrix) {
		rng := rand.New(rand.NewSource(7))
		a := randMatrix(rows, 64, rng)
		w := randMatrix(64, 64, rng)
		dst := New(rows, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mul(dst, a, w)
		}
	}
	// naive is the MulTBInto oracle, blocked the portable 2×4 Go tile over
	// every column, kernel the MulTBBlockedInto entry point (SSE2 blocks
	// with per-call panel staging on amd64).
	blocked := func(dst, a, bb *Matrix) *Matrix {
		mulTBGo(dst, a, bb, 0)
		return dst
	}
	var panels []float64
	kernel := func(dst, a, bb *Matrix) *Matrix { return MulTBBlockedInto(dst, a, bb, &panels) }
	for _, rows := range []int{61, 183} {
		b.Run(fmt.Sprintf("naive-%d", rows), func(b *testing.B) { bench(b, rows, MulTBInto) })
		b.Run(fmt.Sprintf("blocked-%d", rows), func(b *testing.B) { bench(b, rows, blocked) })
		b.Run(fmt.Sprintf("kernel-%d", rows), func(b *testing.B) { bench(b, rows, kernel) })
	}
}
