package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gpudvfs/internal/mat"
)

// predictOracle is the historical Network.Predict formulation: build a
// fresh matrix, then per layer allocate the output, multiply through the
// naive MulTBInto kernel, add the bias and apply the activation as
// separate passes, and copy rows out. The Predictor must match it bit for
// bit.
func predictOracle(n *Network, rows [][]float64) ([][]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	x, err := mat.NewFromRows(rows)
	if err != nil {
		return nil, err
	}
	if x.Cols != n.Layers[0].In {
		return nil, fmt.Errorf("nn: input has %d features, network expects %d", x.Cols, n.Layers[0].In)
	}
	a := x
	for _, l := range n.Layers {
		z := mat.MulTBInto(mat.New(a.Rows, l.Out), a, l.W)
		z.AddRowVec(l.B)
		a = z.Apply(l.Act.Func)
	}
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = append([]float64(nil), a.Row(i)...)
	}
	return out, nil
}

func randRows(rng *rand.Rand, n, cols int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestPredictorBitIdenticalToOracle pins the serving contract: the pooled
// Predict and PredictMatInto paths are bit-identical to the historical
// allocate-per-call Predict — across batch sizes (odd and even, below and
// past the sweep shapes), every activation's epilogue (the fused SELU and
// linear cases and the generic one), multi-output networks whose widths
// leave SIMD column tails, and repeated calls on a warm pool.
func TestPredictorBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	archs := []Arch{
		PaperArch(3),
		{Inputs: 5, Hidden: []int{16, 8}, Outputs: 3, HiddenAct: "relu", OutputAct: "linear"},
		{Inputs: 4, Hidden: []int{13, 9}, Outputs: 2, HiddenAct: "tanh", OutputAct: "sigmoid"},
		{Inputs: 4, Hidden: []int{130, 24}, Outputs: 11, HiddenAct: "selu", OutputAct: "selu"},
	}
	for _, arch := range archs {
		net, err := NewNetwork(arch, 99)
		if err != nil {
			t.Fatal(err)
		}
		p := net.Predictor()
		// 61 is the paper's sweep, 183 the 61×3 (core × mem) grid; 200
		// rows is a batch past both.
		for _, batch := range []int{1, 7, 61, 183, 200} {
			rows := randRows(rng, batch, arch.Inputs)
			want, err := predictOracle(net, rows)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ { // warm pool must not drift
				got, err := net.Predict(rows)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("arch=%v batch=%d rep=%d: Predict differs from oracle", arch, batch, rep)
				}
				x, err := mat.NewFromRows(rows)
				if err != nil {
					t.Fatal(err)
				}
				dm, err := mat.NewFromRows(randRows(rng, batch, arch.Outputs)) // poison, must be overwritten
				if err != nil {
					t.Fatal(err)
				}
				if err := p.PredictMatInto(dm, x); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < batch; i++ {
					for j := 0; j < arch.Outputs; j++ {
						if math.Float64bits(dm.At(i, j)) != math.Float64bits(want[i][j]) {
							t.Fatalf("arch=%v batch=%d: PredictMatInto differs at (%d,%d)", arch, batch, i, j)
						}
					}
				}
			}
		}
	}
}

// TestPredictorConcurrentHammer drives one shared Predictor from many
// goroutines (run under -race by make check) and asserts every result is
// byte-identical to the serial oracle: pooled workspaces must never bleed
// state between in-flight calls.
func TestPredictorConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := NewNetwork(PaperArch(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := net.Predictor()

	const goroutines = 8
	const iters = 40
	// Distinct input per goroutine, oracle computed serially up front.
	inputs := make([][][]float64, goroutines)
	wants := make([][][]float64, goroutines)
	for g := range inputs {
		inputs[g] = randRows(rng, 61, 3)
		w, err := predictOracle(net, inputs[g])
		if err != nil {
			t.Fatal(err)
		}
		wants[g] = w
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, err := mat.NewFromRows(inputs[g])
			if err != nil {
				errs[g] = err
				return
			}
			dst := mat.New(61, 1)
			for it := 0; it < iters; it++ {
				if err := p.PredictMatInto(dst, x); err != nil {
					errs[g] = err
					return
				}
				got := make([][]float64, dst.Rows)
				for i := range got {
					got[i] = dst.Row(i)
				}
				if !sameBits(got, wants[g]) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: output differs from serial oracle", g, it)
					return
				}
				got, err := p.Predict(inputs[g])
				if err != nil {
					errs[g] = err
					return
				}
				if !sameBits(got, wants[g]) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: Predict differs from serial oracle", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictorValidation pins the error cases of the pooled entry
// points.
func TestPredictorValidation(t *testing.T) {
	net, err := NewNetwork(PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := net.Predictor()

	if err := p.PredictMatInto(mat.New(0, 1), mat.New(0, 3)); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	if _, err := p.Predict([][]float64{{1, 2}}); err == nil {
		t.Error("want error for wrong feature count")
	}
	if _, err := p.Predict([][]float64{{1, 2, 3}, {1}}); err == nil {
		t.Error("want error for ragged rows")
	}
	if err := p.PredictMatInto(mat.New(2, 1), mat.New(3, 3)); err == nil {
		t.Error("want error for dst/x row mismatch")
	}
	if err := p.PredictMatInto(mat.New(3, 2), mat.New(3, 3)); err == nil {
		t.Error("want error for dst output-width mismatch")
	}
}

// TestPredict1NoPanicOnMultiOutput pins the fixed latent panic: Predict1 on
// a multi-output network must return an error, never index out of range
// while formatting it.
func TestPredict1NoPanicOnMultiOutput(t *testing.T) {
	net, err := NewNetwork(Arch{Inputs: 2, Hidden: []int{4}, Outputs: 2, HiddenAct: "relu", OutputAct: "linear"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Predict1([]float64{1, 2}); err == nil {
		t.Fatal("want error for multi-output network")
	}
}

// TestPredictEmptyBatch preserves the historical nil,nil contract.
func TestPredictEmptyBatch(t *testing.T) {
	net, err := NewNetwork(PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Predict(nil)
	if out != nil || err != nil {
		t.Fatalf("Predict(nil) = %v, %v; want nil, nil", out, err)
	}
}

// TestBiasActMatchesSeparatePasses pins the inference epilogue against
// the AddRowVec + Apply passes it replaces, for every activation, with
// signed zeros, infinities, NaN and subnormals among the inputs and
// biases (NaN payloads excepted: which NaN an add propagates depends on
// operand order).
func TestBiasActMatchesSeparatePasses(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 800, -800}
	rng := rand.New(rand.NewSource(31))
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return 3 * rng.NormFloat64()
	}
	for _, name := range ActivationNames() {
		act, err := ActivationByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range []int{1, 7, 64, 130} {
			z := mat.New(5, cols)
			b := make([]float64, cols)
			for i := range z.Data {
				z.Data[i] = draw()
			}
			for j := range b {
				b[j] = draw()
			}
			// At the widest shape, row 0 pairs every special input with
			// every special bias.
			if cols >= len(specials)*len(specials) {
				for j := 0; j < len(specials)*len(specials); j++ {
					z.Data[j] = specials[j%len(specials)]
					b[j] = specials[j/len(specials)]
				}
			}
			want := z.Clone().AddRowVec(b).Apply(act.Func)
			got := z.Clone()
			biasAct(got, b, act)
			for i := range want.Data {
				w, g := want.Data[i], got.Data[i]
				if math.IsNaN(w) && math.IsNaN(g) {
					continue
				}
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("%s cols=%d element %d: fused %v (bits %x), separate passes %v (bits %x)",
						name, cols, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}
