package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
)

// testModels builds paper-shaped (3-64-64-64-1) models with deterministic
// random weights. Bit-identity and concurrency contracts hold for any
// weights, so skipping training keeps the suite fast.
func testModels(t testing.TB) *core.Models {
	t.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
}

func testSweeper(t testing.TB) *core.Sweeper {
	t.Helper()
	arch := sim.GA100().Spec()
	sw, err := testModels(t).NewSweeper(arch, arch.DesignClocks())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// syntheticRun fabricates a max-clock profiling run with exact feature
// values so differential tests control cache-bucket placement.
func syntheticRun(fp, dram float64) dcgm.Run {
	return dcgm.Run{
		FreqMHz:     1410,
		ExecTimeSec: 1,
		Samples: []dcgm.Sample{{
			FP32Active:    fp,
			DRAMActive:    dram,
			SMAppClockMHz: 1410,
		}},
	}
}

func uniqueRuns(n int) []dcgm.Run {
	runs := make([]dcgm.Run, n)
	for i := range runs {
		runs[i] = syntheticRun(0.05+0.17*float64(i%257), 0.10+0.19*float64(i/257))
	}
	return runs
}

func profilesIdentical(a, b []objective.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// holdRunSlots takes every run slot of srv's admission gate, so admitted
// sweeps wait until the returned release is called.
func holdRunSlots(srv *Server) (release func()) {
	for i := 0; i < cap(srv.run); i++ {
		srv.run <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(srv.run); i++ {
			<-srv.run
		}
	}
}

// waitAdmitted polls until the gate holds n sweeps.
func waitAdmitted(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Admitted() != n {
		if time.Now().After(deadline) {
			t.Fatalf("gate holds %d sweeps, want %d", srv.Admitted(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestServer(t *testing.T, sw *core.Sweeper, queue int) *Server {
	t.Helper()
	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
		Queue: queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestServerAdmission pins the admission gate: a sweep abandoned while it
// waits for a run slot returns ctx.Err() and frees its admission, the gate
// sheds at exactly Queue, Close turns every later sweep into ErrClosed,
// and concurrent gated sweeps are bit-identical to the direct sweep.
func TestServerAdmission(t *testing.T) {
	sw := testSweeper(t)
	predict := func(srv *Server, ctx context.Context, run dcgm.Run) chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := srv.Predict(ctx, run)
			done <- err
		}()
		return done
	}

	t.Run("cancel while waiting", func(t *testing.T) {
		srv := newTestServer(t, sw, 4)
		release := holdRunSlots(srv)
		defer release()
		ctx, cancel := context.WithCancel(context.Background())
		done := predict(srv, ctx, syntheticRun(0.3, 0.3))
		waitAdmitted(t, srv, 1)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled sweep: got %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled sweep did not return")
		}
		waitAdmitted(t, srv, 0)
	})

	t.Run("sheds at queue", func(t *testing.T) {
		const queue = 3
		srv := newTestServer(t, sw, queue)
		release := holdRunSlots(srv)
		waiting := make([]chan error, queue)
		for i := range waiting {
			waiting[i] = predict(srv, context.Background(), syntheticRun(0.1+0.2*float64(i), 0.2))
		}
		waitAdmitted(t, srv, queue)
		if _, _, err := srv.Predict(context.Background(), syntheticRun(0.9, 0.9)); !errors.Is(err, ErrOverloaded) {
			release()
			t.Fatalf("sweep past the bound: got %v, want ErrOverloaded", err)
		}
		release()
		for i, done := range waiting {
			if err := <-done; err != nil {
				t.Fatalf("admitted sweep %d: %v", i, err)
			}
		}
		waitAdmitted(t, srv, 0)
		if _, _, err := srv.Predict(context.Background(), syntheticRun(0.9, 0.9)); err != nil {
			t.Fatalf("sweep after the gate drained: %v", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		srv := newTestServer(t, sw, 4)
		release := holdRunSlots(srv)
		defer release()
		done := predict(srv, context.Background(), syntheticRun(0.3, 0.3))
		waitAdmitted(t, srv, 1)
		srv.Close()
		srv.Close() // idempotent
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Fatalf("sweep waiting at close: got %v, want ErrClosed", err)
		}
		if _, _, err := srv.Predict(context.Background(), syntheticRun(0.5, 0.5)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Predict after close: got %v, want ErrClosed", err)
		}
		if _, _, err := srv.Select(context.Background(), syntheticRun(0.5, 0.5)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Select miss after close: got %v, want ErrClosed", err)
		}
	})

	for _, n := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("matches direct sweep %d", n), func(t *testing.T) {
			srv := newTestServer(t, sw, n)
			runs := uniqueRuns(n)
			want := make([][]objective.Profile, n)
			wantClamped := make([]core.Clamps, n)
			for i, r := range runs {
				var err error
				want[i] = make([]objective.Profile, sw.GridSize())
				if wantClamped[i], err = sw.PredictProfileInto(want[i], r); err != nil {
					t.Fatal(err)
				}
			}
			got := make([][]objective.Profile, n)
			gotClamped := make([]core.Clamps, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], gotClamped[i], errs[i] = srv.Predict(context.Background(), runs[i])
				}(i)
			}
			wg.Wait()
			for i := range runs {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if gotClamped[i] != wantClamped[i] || !profilesIdentical(got[i], want[i]) {
					t.Fatalf("run %d: gated sweep differs from the direct sweep", i)
				}
			}
		})
	}
}

// TestNonFiniteTelemetryRejected: a profiling run with a NaN or infinite
// exec time or feature is refused with a specific ErrInvalidRun by both
// the cached and the uncached path, and never enters the plan cache.
func TestNonFiniteTelemetryRejected(t *testing.T) {
	srv := newTestServer(t, testSweeper(t), 0)
	if _, _, err := srv.Select(context.Background(), syntheticRun(0.4, 0.3)); err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*dcgm.Run)
		want string
	}{
		{"exec NaN", func(r *dcgm.Run) { r.ExecTimeSec = math.NaN() }, "non-finite exec time"},
		{"exec +Inf", func(r *dcgm.Run) { r.ExecTimeSec = inf }, "non-finite exec time"},
		{"exec -Inf", func(r *dcgm.Run) { r.ExecTimeSec = -inf }, "non-finite exec time"},
		{"feature NaN", func(r *dcgm.Run) { r.Samples[0].DRAMActive = math.NaN() }, "non-finite feature dram_active"},
		{"feature +Inf", func(r *dcgm.Run) { r.Samples[0].DRAMActive = inf }, "non-finite feature dram_active"},
		{"feature -Inf", func(r *dcgm.Run) { r.Samples[0].DRAMActive = -inf }, "non-finite feature dram_active"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := syntheticRun(0.4, 0.3)
			tc.edit(&run)
			before := srv.Cache().Len()
			if _, _, err := srv.Cache().Select(run); !errors.Is(err, core.ErrInvalidRun) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PlanCache.Select: got %v, want an ErrInvalidRun containing %q", err, tc.want)
			}
			if _, _, err := srv.Predict(context.Background(), run); !errors.Is(err, core.ErrInvalidRun) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Server.Predict: got %v, want an ErrInvalidRun containing %q", err, tc.want)
			}
			if after := srv.Cache().Len(); after != before {
				t.Fatalf("plan cache grew from %d to %d entries", before, after)
			}
		})
	}
}

// TestServerSelectDifferential: the full serving stack (sharded cache +
// admission gate) under concurrent load returns selections bit-identical to
// the serial PR 3 path, and hit/miss accounting holds up.
func TestServerSelectDifferential(t *testing.T) {
	sw := testSweeper(t)
	const nRuns = 24
	runs := uniqueRuns(nRuns)

	// Serial reference: per-request sweep through a one-shard cache.
	ref, err := core.NewPlanCache(sw, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]core.Selection, nRuns)
	for i, r := range runs {
		if want[i], _, err = ref.Select(r); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	got := make([]core.Selection, nRuns)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nRuns; i += workers {
				sel, _, err := srv.Select(context.Background(), runs[i])
				if err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				got[i] = sel
			}
		}(w)
	}
	wg.Wait()
	for i := range runs {
		if got[i] != want[i] {
			t.Fatalf("run %d: server selection %+v != serial %+v", i, got[i], want[i])
		}
	}

	// Repeat pass: all hits, no sweep beyond the first misses.
	misses := srv.Stats().Cache.Misses
	for i, r := range runs {
		sel, hit, err := srv.Select(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("run %d: expected cache hit on repeat", i)
		}
		if sel != want[i] {
			t.Fatalf("run %d: repeat selection changed", i)
		}
	}
	st := srv.Stats()
	if st.Cache.Misses != misses {
		t.Fatalf("repeat pass swept: %d → %d misses", misses, st.Cache.Misses)
	}
	if st.Cache.Hits < nRuns {
		t.Fatalf("cache hits %d < %d", st.Cache.Hits, nRuns)
	}
	if st.Cache.Misses != nRuns {
		t.Fatalf("cache misses %d, want %d (singleflight per bucket)", st.Cache.Misses, nRuns)
	}
}

// TestServerPredict routes an uncached sweep through the gate and
// matches the direct sweeper bit-for-bit.
func TestServerPredict(t *testing.T) {
	sw := testSweeper(t)
	srv, err := NewServer(sw, ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	run := syntheticRun(0.42, 0.3)
	want := make([]objective.Profile, len(sw.Freqs()))
	wantClamped, err := sw.PredictProfileInto(want, run)
	if err != nil {
		t.Fatal(err)
	}
	got, gotClamped, err := srv.Predict(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if gotClamped != wantClamped || !profilesIdentical(got, want) {
		t.Fatal("Predict differs from direct sweep")
	}
}

// TestServerConfigValidation: the server owns the cache's Sweep hook and
// propagates construction errors.
func TestServerConfigValidation(t *testing.T) {
	sw := testSweeper(t)
	if _, err := NewServer(nil, ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}}}); err == nil {
		t.Fatal("nil sweeper accepted")
	}
	occupied := core.PlanCacheConfig{Objective: objective.EDP{}}
	occupied.Sweep = func(context.Context, []objective.Profile, dcgm.Run) (core.Clamps, error) { return core.Clamps{}, nil }
	if _, err := NewServer(sw, ServerConfig{Cache: occupied}); err == nil {
		t.Fatal("pre-set Sweep accepted")
	}
	if _, err := NewServer(sw, ServerConfig{}); err == nil {
		t.Fatal("missing objective accepted")
	}
	if _, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}},
		Queue: -1,
	}); err == nil {
		t.Fatal("negative queue bound accepted")
	}
}
