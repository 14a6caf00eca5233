package serve

import (
	"context"
	"sync/atomic"
	"testing"

	"gpudvfs/internal/core"
	"gpudvfs/internal/objective"
)

func benchServer(b *testing.B, cache core.PlanCacheConfig) *Server {
	b.Helper()
	srv, err := NewServer(testSweeper(b), ServerConfig{Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkServeSelectHit is the steady-state serving fast path: every
// request hits the sharded cache, never touching the admission gate.
func BenchmarkServeSelectHit(b *testing.B) {
	srv := benchServer(b, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	run := syntheticRun(0.42, 0.3)
	ctx := context.Background()
	if _, _, err := srv.Select(ctx, run); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := srv.Select(ctx, run); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeSelectMiss drives all-miss concurrent Selects through the
// full stack — sharded cache, singleflight, gated direct sweeps. A
// capacity-1 cache keeps every request on the miss path.
func BenchmarkServeSelectMiss(b *testing.B) {
	srv := benchServer(b, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Capacity: 1})
	runs := uniqueRuns(1024)
	ctx := context.Background()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := runs[next.Add(1)%uint64(len(runs))]
			if _, _, err := srv.Select(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServePredict routes single sweeps through the admission gate
// into a caller-owned buffer — the gate's per-request overhead relative to
// a direct sweeper call, with the same zero allocations.
func BenchmarkServePredict(b *testing.B) {
	srv := benchServer(b, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	run := syntheticRun(0.42, 0.3)
	dst := make([]objective.Profile, srv.Sweeper().GridSize())
	ctx := context.Background()
	// Warm the sweep workspace pools so even a one-iteration smoke run
	// reports the steady state.
	if _, err := srv.sweep(ctx, dst, run); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.sweep(ctx, dst, run); err != nil {
			b.Fatal(err)
		}
	}
}
