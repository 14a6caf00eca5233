package mat

import (
	"runtime"
	"sync"
)

// parallelThreshold is the output-element count below which MulParallel
// falls back to the serial kernel (goroutine fan-out costs more than it
// saves on small matrices).
const parallelThreshold = 64 * 64

// MulParallel returns a*b like Mul, computing disjoint row blocks of the
// output on separate goroutines. Results are bit-identical to Mul (each
// output row is produced by exactly one goroutine using the same kernel
// and summation order). workers ≤ 0 selects GOMAXPROCS.
func MulParallel(a, b *Matrix, workers int) *Matrix {
	if a.Rows*b.Cols < parallelThreshold {
		return Mul(a, b)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	if a.Cols != b.Rows {
		// Delegate the panic message to the serial kernel for consistency.
		return Mul(a, b)
	}
	out := New(a.Rows, b.Cols)
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulRows computes output rows [lo, hi) with the same ikj kernel Mul uses.
func mulRows(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}
