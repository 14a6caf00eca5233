package nn

import (
	"math/rand"
	"testing"

	"gpudvfs/internal/mat"
)

func benchBatch(n, features int) (*mat.Matrix, [][]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, features)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
		y[i] = rng.NormFloat64()
	}
	x, _ := mat.NewFromRows(rows)
	return x, rows, y
}

// BenchmarkForwardPaperArch measures one training-mode forward pass of the
// paper's 3-64-64-64-1 network at the paper's batch size.
func BenchmarkForwardPaperArch(b *testing.B) {
	net, _ := NewNetwork(PaperArch(3), 1)
	x, _, _ := benchBatch(64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkTrainStep measures one full forward+backward+RMSprop step.
func BenchmarkTrainStep(b *testing.B) {
	net, _ := NewNetwork(PaperArch(3), 1)
	opt, _ := NewOptimizer(OptimizerConfig{Name: "rmsprop"})
	x, _, y := benchBatch(64, 3)
	dOut := mat.New(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := net.Forward(x)
		for r := 0; r < 64; r++ {
			dOut.Set(r, 0, 2*(pred.At(r, 0)-y[r])/64)
		}
		net.Backward(dOut)
		net.Step(opt)
	}
}

// BenchmarkFitEpochs measures a full Fit call — the paper's offline
// training regime on a realistically sized sample set, including the
// validation passes and best-epoch snapshots — so the steady-state
// allocation behaviour of the whole loop is visible, not just one step.
func BenchmarkFitEpochs(b *testing.B) {
	_, rows, y := benchBatch(366, 3) // 61 configs × 6 samples/run
	cfg := PaperTrainConfig(10)
	cfg.EarlyStopPatience = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _ := NewNetwork(PaperArch(3), 1)
		if _, err := net.Fit(rows, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDesignSpace measures the online phase's inference cost:
// predicting all 61 DVFS configurations in one batch. Predict now routes
// through the pooled Predictor, so the remaining allocations are the
// returned output rows the signature promises.
func BenchmarkPredictDesignSpace(b *testing.B) {
	net, _ := NewNetwork(PaperArch(3), 1)
	_, rows, _ := benchBatch(61, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictMatIntoDesignSpace measures the same sweep through the
// zero-alloc serving path the core Sweeper uses: pooled workspaces, a
// caller-staged input matrix and a caller-provided output.
func BenchmarkPredictMatIntoDesignSpace(b *testing.B) {
	net, _ := NewNetwork(PaperArch(3), 1)
	x, _, _ := benchBatch(61, 3)
	p := net.Predictor()
	dst := mat.New(x.Rows, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PredictMatInto(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}
