// Package serve is the concurrent serving layer over the paper's online
// phase: the machinery that makes frequency selection scale with cores and
// request load instead of executing strictly per request.
//
// Two pieces compose:
//
//   - Server puts core.PlanCache's sharded, singleflight cache in front of
//     the design-space sweep. Hits stay lock-striped and allocation-free;
//     each miss (and each uncached Predict) runs one direct
//     core.Sweeper.PredictProfileInto on the caller's goroutine, behind a
//     bounded admission gate.
//
//   - NewHandler exposes the server over HTTP/JSON (/v1/select,
//     /v1/profile, /v1/stats, /metrics) for cmd/dvfs-served.
//
// Overload semantics are explicit everywhere: the gate admits a bounded
// number of sweeps, a sweep past the bound is shed at once with
// ErrOverloaded (never unbounded buffering), and the HTTP layer maps that
// to 429.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// Shedding and lifecycle errors. ErrOverloaded is the admission gate's
// backpressure signal — callers (and HTTP 429 mapping) treat it as "retry
// later", never as a broken server.
var (
	ErrOverloaded = errors.New("serve: sweep queue full (overloaded, retry later)")
	ErrClosed     = errors.New("serve: server closed")
)

// ServerConfig assembles the serving stack.
type ServerConfig struct {
	// Cache configures the sharded plan cache (objective required). Its
	// Sweep field is owned by the server — the admission gate is installed
	// there — and must be left nil.
	Cache core.PlanCacheConfig
	// Queue bounds the sweeps admitted at once, running or waiting for a
	// run slot; a sweep past it is shed with ErrOverloaded. 0 selects 64.
	Queue int
}

// ServerStats is one consistent-enough snapshot of the serving counters.
type ServerStats struct {
	Cache    core.PlanCacheStats
	CacheLen int
}

// Server is the concurrent frequency-selection service: a sharded
// core.PlanCache in front, the admission-gated direct sweep underneath it
// on the miss path. Hits never touch the gate; repeat misses on one bucket
// stay singleflighted by the cache. Selections are bit-identical to the
// per-request, single-threaded path for the same inputs, because the
// gated sweep is that path.
type Server struct {
	sw    *core.Sweeper
	cache *core.PlanCache

	// The admission gate. admit holds one token per admitted sweep and run
	// one per running sweep; at most GOMAXPROCS sweeps run at once, since
	// a sweep is pure CPU and more would only time-slice.
	admit     chan struct{}
	run       chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// NewServer builds the serving stack over a sweeper. Close it when done.
func NewServer(sw *core.Sweeper, cfg ServerConfig) (*Server, error) {
	if sw == nil {
		return nil, errors.New("serve: server needs a sweeper")
	}
	if cfg.Cache.Sweep != nil {
		return nil, errors.New("serve: ServerConfig.Cache.Sweep is owned by the server; leave it nil")
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.Queue < 1 {
		return nil, fmt.Errorf("serve: queue bound %d < 1", cfg.Queue)
	}
	s := &Server{
		sw:     sw,
		admit:  make(chan struct{}, cfg.Queue),
		run:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		closed: make(chan struct{}),
	}
	cc := cfg.Cache
	cc.Sweep = s.sweep
	cache, err := core.NewPlanCache(sw, cc)
	if err != nil {
		return nil, err
	}
	s.cache = cache
	return s, nil
}

// sweep is the admission gate around one direct sweep. Past the admission
// bound it sheds at once with ErrOverloaded; an admitted sweep waits for a
// run slot, giving up with ctx.Err() if the context ends first (or
// ErrClosed if the server closes), and then runs on the caller's
// goroutine.
func (s *Server) sweep(ctx context.Context, dst []objective.Profile, maxRun dcgm.Run) (core.Clamps, error) {
	if err := ctx.Err(); err != nil {
		return core.Clamps{}, err
	}
	select {
	case <-s.closed:
		return core.Clamps{}, ErrClosed
	default:
	}
	select {
	case s.admit <- struct{}{}:
	default:
		return core.Clamps{}, ErrOverloaded
	}
	defer func() { <-s.admit }()
	select {
	case s.run <- struct{}{}:
	case <-ctx.Done():
		return core.Clamps{}, ctx.Err()
	case <-s.closed:
		return core.Clamps{}, ErrClosed
	}
	defer func() { <-s.run }()
	return s.sw.PredictProfileInto(dst, maxRun)
}

// Select resolves the frequency selection for a profiling run: a cache hit
// returns the memoized selection; a miss runs a gated sweep. hit reports
// which happened. ErrOverloaded comes back when the gate is full.
func (s *Server) Select(ctx context.Context, maxRun dcgm.Run) (core.Selection, bool, error) {
	return s.cache.SelectCtx(ctx, maxRun)
}

// Predict runs one gated design-space sweep (no caching) and returns the
// predicted profiles with the per-axis safety-floor clamp counts — the
// /v1/profile endpoint's core.
func (s *Server) Predict(ctx context.Context, maxRun dcgm.Run) ([]objective.Profile, core.Clamps, error) {
	dst := make([]objective.Profile, s.sw.GridSize())
	clamped, err := s.sweep(ctx, dst, maxRun)
	if err != nil {
		return nil, core.Clamps{}, err
	}
	return dst, clamped, nil
}

// Sweeper exposes the underlying design-space sweeper.
func (s *Server) Sweeper() *core.Sweeper { return s.sw }

// Admitted reports how many sweeps the gate holds right now, running or
// waiting for a run slot — the gauge the metrics endpoint exports.
// Inherently racy, which is all a gauge promises.
func (s *Server) Admitted() int { return len(s.admit) }

// Cache exposes the sharded plan cache (for stats and tests).
func (s *Server) Cache() *core.PlanCache { return s.cache }

// Stats snapshots all serving counters without blocking the serve path.
func (s *Server) Stats() ServerStats {
	return ServerStats{Cache: s.cache.Stats(), CacheLen: s.cache.Len()}
}

// Close shuts the gate: new sweeps and sweeps still waiting for a run
// slot fail with ErrClosed, and sweeps already running finish. It is
// idempotent.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.closed) }) }
