package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/mat"
	"gpudvfs/internal/objective"
)

// Sweeper is the serving-grade form of the online phase for one
// (target architecture, core-frequency list, memory-clock list) triple.
// With a memory axis the design space is the (core × mem) grid, laid out
// memory-outer: grid point g predicts core clock freqs[g%len(freqs)] at
// memory clock memFreqs[g/len(freqs)]. Without one (memFreqs nil) the
// sweeper is exactly the historical 1-D core-frequency sweep,
// bit-identical output included.
//
// Everything that does not depend on the profiling run is pre-resolved at
// construction: the clock and mem-clock feature column indices, their
// per-grid-point values *after scaling* (the static plane), and per-call
// workspaces behind a sync.Pool whose sweep matrices carry the static
// columns pre-staged. Each PredictProfileInto call therefore only scales
// the mean-sample features once (one row through the scaler, not one per
// grid point), broadcasts them into the dynamic columns, and runs two
// pooled batch inferences. At steady state the whole call performs zero
// heap allocations.
//
// Pre-scaling the static plane relies on the stats.Scaler contract that
// scaling is element-wise per column (each output element depends only on
// its own input element and the fitted column parameters), which both
// shipped scalers satisfy; that is what makes the staged columns
// bit-identical to scaling every full row per call. The scaler is bound
// at construction — retraining models invalidates existing sweepers.
//
// A Sweeper is safe for concurrent use: each in-flight call owns one
// pooled workspace, and the underlying nn.Predictor pool provides the same
// guarantee for the forward passes.
type Sweeper struct {
	models   *Models
	target   backend.Arch
	freqs    []float64
	memFreqs []float64 // nil: 1-D core-only sweep
	defMem   float64   // default memory P-state, 0 when target has no memory axis
	nGrid    int       // len(freqs) × max(1, len(memFreqs))

	clockIdx int // index of sm_app_clock in the feature layout, -1 if absent
	memIdx   int // index of mem_app_clock, -1 if absent
	dynIdx   []int
	// The static plane: feature-column values that depend only on the grid
	// point, already scaled. scaledClock is indexed by core-frequency
	// index, scaledMem by memory-clock index (one entry meaning "default
	// state" when there is no memory axis).
	scaledClock []float64
	scaledMem   []float64

	pool sync.Pool // *sweepWS
}

// sweepWS is one in-flight call's workspace. The sweep matrix x has the
// static clock/mem columns staged at workspace birth; calls write only
// the dynamic columns.
type sweepWS struct {
	base    []float64   // feature vector of the mean sample at max clock
	baseRow [][]float64 // one-row view of base, for the in-place scaler
	x       *mat.Matrix // nGrid × len(features) sweep matrix
	pP      *mat.Matrix // power predictions, nGrid × 1
	tP      *mat.Matrix // time predictions, nGrid × 1
}

// NewSweeper builds a 1-D sweeper for predicting m's profiles on target
// across freqs — NewGridSweeper without a memory axis.
func (m *Models) NewSweeper(target backend.Arch, freqs []float64) (*Sweeper, error) {
	return m.NewGridSweeper(target, freqs, nil)
}

// NewGridSweeper builds a sweeper over the (freqs × memFreqs) design grid
// on target. memFreqs nil selects the historical 1-D core-only sweep;
// non-nil entries must be memory P-states the target supports. The
// feature layout, model shapes, and the static plane are resolved once
// here so the per-call path cannot fail on them.
func (m *Models) NewGridSweeper(target backend.Arch, freqs, memFreqs []float64) (*Sweeper, error) {
	if m.Power == nil || m.Time == nil {
		return nil, errors.New("core: sweeper needs trained power and time models")
	}
	if target.MaxFreqMHz <= 0 {
		return nil, fmt.Errorf("core: target %q has non-positive max clock %v", target.Name, target.MaxFreqMHz)
	}
	if err := m.CheckDVFS(target); err != nil {
		return nil, err
	}
	defMem := target.DefaultMemClock()
	if memFreqs != nil {
		if len(memFreqs) == 0 {
			return nil, errors.New("core: empty memory-clock list (use nil for a core-only sweep)")
		}
		if defMem <= 0 {
			return nil, fmt.Errorf("core: target %q has no memory axis", target.Name)
		}
		for _, f := range memFreqs {
			if !target.IsSupportedMemClock(f) {
				return nil, fmt.Errorf("core: target %q does not support memory clock %v MHz (have %v)", target.Name, f, target.MemClocks())
			}
		}
	}
	// Resolve the feature layout once; FeatureVectorInto can only fail on
	// unknown names, so surfacing that here keeps the hot path error-free.
	if err := dataset.FeatureVectorInto(make([]float64, len(m.Features)), m.Features, dcgm.Sample{}, target.MaxFreqMHz, target.MaxFreqMHz); err != nil {
		return nil, err
	}
	s := &Sweeper{
		models:   m,
		target:   target,
		freqs:    append([]float64(nil), freqs...),
		memFreqs: append([]float64(nil), memFreqs...),
		defMem:   defMem,
		nGrid:    len(freqs),
		clockIdx: -1,
		memIdx:   -1,
	}
	if memFreqs != nil {
		s.nGrid = len(freqs) * len(memFreqs)
	} else {
		s.memFreqs = nil // preserve nil-ness through the copy
	}
	for i, name := range m.Features {
		switch {
		case name == "sm_app_clock" && s.clockIdx < 0:
			s.clockIdx = i
		case name == dataset.MemFeature && s.memIdx < 0:
			s.memIdx = i
		default:
			// Duplicate clock-feature occurrences ride the dynamic path:
			// their base value (the scaled default-state ratio) is what the
			// historical full-row rebuild put there too.
			s.dynIdx = append(s.dynIdx, i)
		}
	}

	// Build the static plane: the per-grid-point clock and mem values, as
	// FeatureVector(Grid)Into computes them, pushed through the scaler once.
	clockVals := make([]float64, len(s.freqs))
	for i, f := range s.freqs {
		clockVals[i] = f / target.MaxFreqMHz
	}
	memVals := []float64{dataset.MemRatio(0, defMem)} // the default state: exactly 1
	if s.memFreqs != nil {
		memVals = make([]float64, len(s.memFreqs))
		for i, f := range s.memFreqs {
			memVals[i] = dataset.MemRatio(f, defMem)
		}
	}
	var err error
	if s.scaledClock, err = m.scaleColumn(s.clockIdx, clockVals); err != nil {
		return nil, fmt.Errorf("core: scaling clock plane: %w", err)
	}
	if s.scaledMem, err = m.scaleColumn(s.memIdx, memVals); err != nil {
		return nil, fmt.Errorf("core: scaling mem plane: %w", err)
	}

	nf := len(m.Features)
	s.pool.New = func() any {
		ws := &sweepWS{
			base: make([]float64, nf),
			x:    mat.New(s.nGrid, nf),
			pP:   mat.New(s.nGrid, 1),
			tP:   mat.New(s.nGrid, 1),
		}
		ws.baseRow = [][]float64{ws.base}
		s.stageStatic(ws.x)
		return ws
	}
	return s, nil
}

// scaleColumn pushes per-grid-point values for feature column j through
// the models' scaler, one value at a time in an otherwise-zero row, and
// returns the scaled values. Column independence of the scaler makes the
// surrounding zeros irrelevant. A nil scaler or absent column (j < 0)
// returns the values unchanged.
func (m *Models) scaleColumn(j int, vals []float64) ([]float64, error) {
	out := append([]float64(nil), vals...)
	if m.Scaler == nil || j < 0 {
		return out, nil
	}
	row := make([]float64, len(m.Features))
	rows := [][]float64{row}
	for i, v := range vals {
		for k := range row {
			row[k] = 0
		}
		row[j] = v
		if err := m.Scaler.TransformInto(rows, rows); err != nil {
			return nil, err
		}
		out[i] = row[j]
	}
	return out, nil
}

// stageStatic writes the pre-scaled static clock/mem columns into a sweep
// matrix. Row g is grid point g; the grid is memory-outer, core-inner.
func (s *Sweeper) stageStatic(x *mat.Matrix) {
	nF := len(s.freqs)
	for g := 0; g < s.nGrid; g++ {
		row := x.Row(g)
		if s.clockIdx >= 0 {
			row[s.clockIdx] = s.scaledClock[g%nF]
		}
		if s.memIdx >= 0 {
			row[s.memIdx] = s.scaledMem[g/nF]
		}
	}
}

// fillDynamic broadcasts the scaled mean-sample features into the dynamic
// columns of a sweep matrix whose static columns are already staged.
func (s *Sweeper) fillDynamic(x *mat.Matrix, scaledBase []float64) {
	for g := 0; g < s.nGrid; g++ {
		row := x.Row(g)
		for _, j := range s.dynIdx {
			row[j] = scaledBase[j]
		}
	}
}

// scaleBase builds the profiling run's feature vector into base and
// scales it in place through baseRow — one row through the scaler per
// call, regardless of grid size.
func (s *Sweeper) scaleBase(base []float64, baseRow [][]float64, mean dcgm.Sample) error {
	m := s.models
	if err := dataset.FeatureVectorInto(base, m.Features, mean, s.target.MaxFreqMHz, s.target.MaxFreqMHz); err != nil {
		return err
	}
	if m.Scaler != nil {
		if err := m.Scaler.TransformInto(baseRow, baseRow); err != nil {
			return fmt.Errorf("core: scaling features: %w", err)
		}
	}
	return nil
}

// compose turns prediction rows into profiles, accumulating clamp counts
// per axis: grid points at an off-default memory clock count as Mem,
// everything else as Core.
func (s *Sweeper) compose(dst []objective.Profile, cl *Clamps, pP, tP *mat.Matrix, execTimeSec float64) {
	nF := len(s.freqs)
	for g := 0; g < s.nGrid; g++ {
		power := pP.At(g, 0) * s.target.TDPWatts
		slow := tP.At(g, 0)
		// Floor pathological predictions at 1 W / 1e-6 slowdown so
		// downstream EDP math stays well defined even for badly
		// undertrained models — but count every clamp so they are visible.
		mem := 0.0
		onMem := false
		if s.memFreqs != nil {
			mem = s.memFreqs[g/nF]
			onMem = mem != s.defMem
		}
		if power < 1 {
			power = 1
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		if slow < 1e-6 {
			slow = 1e-6
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		dst[g] = objective.Profile{
			FreqMHz:    s.freqs[g%nF],
			MemFreqMHz: mem,
			PowerWatts: power,
			TimeSec:    execTimeSec * slow,
		}
	}
}

// Freqs returns the sweep's core-frequency list (not a copy; callers must
// not modify it).
func (s *Sweeper) Freqs() []float64 { return s.freqs }

// MemFreqs returns the sweep's memory-clock list, nil for a 1-D core-only
// sweep (not a copy; callers must not modify it).
func (s *Sweeper) MemFreqs() []float64 { return s.memFreqs }

// GridSize returns the number of design points one sweep predicts:
// len(Freqs()) × max(1, len(MemFreqs())) — the buffer length
// PredictProfileInto requires.
func (s *Sweeper) GridSize() int { return s.nGrid }

// Target returns the architecture the sweeper predicts for.
func (s *Sweeper) Target() backend.Arch { return s.target }

// matches reports whether the sweeper was built for exactly this target,
// frequency list, and memory-clock list (the fields prediction depends on).
func (s *Sweeper) matches(target backend.Arch, freqs, memFreqs []float64) bool {
	if s.target.Name != target.Name || s.target.MaxFreqMHz != target.MaxFreqMHz || s.target.TDPWatts != target.TDPWatts {
		return false
	}
	if len(s.freqs) != len(freqs) || (s.memFreqs == nil) != (memFreqs == nil) || len(s.memFreqs) != len(memFreqs) {
		return false
	}
	for i, f := range freqs {
		if s.freqs[i] != f {
			return false
		}
	}
	for i, f := range memFreqs {
		if s.memFreqs[i] != f {
			return false
		}
	}
	return true
}

// ErrInvalidRun marks a profiling run the online phase cannot predict
// from: no samples, the wrong clocks, or non-finite telemetry. The fault
// is in the run, not the models, so servers answer it as a bad input.
// Errors carrying it keep their own messages; match with errors.Is.
var ErrInvalidRun = errors.New("core: invalid profiling run")

// invalidRun tags err with ErrInvalidRun without changing its message.
type invalidRun struct{ err error }

func (e invalidRun) Error() string   { return e.err.Error() }
func (e invalidRun) Unwrap() []error { return []error{ErrInvalidRun, e.err} }

// validateRun applies the online phase's profiling-run preconditions, with
// the same error messages PredictProfile always produced, and returns the
// run's mean sample. Profiling must happen at the maximum core clock and
// the default memory P-state — the grid corner every other design point
// is extrapolated from — and the telemetry a sweep reads must be finite:
// a NaN or infinite input would otherwise come back as a confident
// selection (and be memoized under a sentinel plan-cache bucket). A run
// that fails them comes back as ErrInvalidRun.
func (s *Sweeper) validateRun(maxRun dcgm.Run) (dcgm.Sample, error) {
	if len(maxRun.Samples) == 0 {
		return dcgm.Sample{}, invalidRun{errors.New("core: profiling run has no samples")}
	}
	if maxRun.FreqMHz != s.target.MaxFreqMHz {
		return dcgm.Sample{}, invalidRun{fmt.Errorf("core: profiling run was at %v MHz, want the maximum clock %v MHz", maxRun.FreqMHz, s.target.MaxFreqMHz)}
	}
	if maxRun.MemFreqMHz != 0 && maxRun.MemFreqMHz != s.defMem {
		return dcgm.Sample{}, invalidRun{fmt.Errorf("core: profiling run was at memory clock %v MHz, want the default P-state %v MHz", maxRun.MemFreqMHz, s.defMem)}
	}
	if !finite(maxRun.ExecTimeSec) {
		return dcgm.Sample{}, invalidRun{fmt.Errorf("core: profiling run has non-finite exec time %v", maxRun.ExecTimeSec)}
	}
	if maxRun.ExecTimeSec <= 0 {
		return dcgm.Sample{}, invalidRun{fmt.Errorf("core: profiling run has non-positive exec time %v", maxRun.ExecTimeSec)}
	}
	mean := maxRun.MeanSample()
	for _, name := range s.models.Features {
		if name == "sm_app_clock" || name == dataset.MemFeature {
			continue // set from the design grid, never read from the sample
		}
		v, err := dataset.Feature(name, mean, s.target.MaxFreqMHz)
		if err != nil {
			return dcgm.Sample{}, err
		}
		if !finite(v) {
			return dcgm.Sample{}, invalidRun{fmt.Errorf("core: profiling run has non-finite feature %s = %v", name, v)}
		}
	}
	return mean, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PredictProfileInto runs the online phase for one profiling run, writing
// one predicted profile per design point into dst (which must have
// GridSize() entries; grid point g is core clock Freqs()[g%len(Freqs())]
// at memory clock MemFreqs()[g/len(Freqs())]). It returns how many
// predictions had to be clamped to the power/slowdown floors, split by
// axis — a signal that the models are undertrained for this workload,
// surfaced instead of silently masked.
//
// Zero heap allocations at steady state; without a memory axis,
// bit-identical to Models.PredictProfile's historical 1-D output.
func (s *Sweeper) PredictProfileInto(dst []objective.Profile, maxRun dcgm.Run) (Clamps, error) {
	var cl Clamps
	mean, err := s.validateRun(maxRun)
	if err != nil {
		return cl, err
	}
	if len(dst) != s.nGrid {
		return cl, fmt.Errorf("core: profile buffer has %d entries, sweep has %d design points", len(dst), s.nGrid)
	}
	m := s.models
	ws := s.pool.Get().(*sweepWS)
	defer s.pool.Put(ws)

	if err := s.scaleBase(ws.base, ws.baseRow, mean); err != nil {
		return cl, err
	}
	s.fillDynamic(ws.x, ws.base)
	if err := m.Power.Predictor().PredictMatInto(ws.pP, ws.x); err != nil {
		return cl, fmt.Errorf("core: power prediction: %w", err)
	}
	if err := m.Time.Predictor().PredictMatInto(ws.tP, ws.x); err != nil {
		return cl, fmt.Errorf("core: time prediction: %w", err)
	}
	s.compose(dst, &cl, ws.pP, ws.tP, maxRun.ExecTimeSec)
	return cl, nil
}

// ValidateRun applies the online phase's profiling-run preconditions
// without predicting anything, so a caller can reject a bad run before
// doing any other work for it.
func (s *Sweeper) ValidateRun(maxRun dcgm.Run) error {
	_, err := s.validateRun(maxRun)
	return err
}

// PredictProfile is the allocating convenience form of PredictProfileInto.
func (s *Sweeper) PredictProfile(maxRun dcgm.Run) ([]objective.Profile, Clamps, error) {
	out := make([]objective.Profile, s.nGrid)
	clamped, err := s.PredictProfileInto(out, maxRun)
	if err != nil {
		return nil, Clamps{}, err
	}
	return out, clamped, nil
}

// SweeperFor returns the memoized serving sweeper for (target, freqs):
// every caller asking for the same target and frequency list shares one
// Sweeper (and therefore one workspace pool), which is the concurrency
// model the serving layer and multi-governor deployments rely on.
func (m *Models) SweeperFor(target backend.Arch, freqs []float64) (*Sweeper, error) {
	return m.sweeperFor(target, freqs, nil)
}

// GridSweeperFor is SweeperFor over the (core × mem) design grid.
func (m *Models) GridSweeperFor(target backend.Arch, freqs, memFreqs []float64) (*Sweeper, error) {
	return m.sweeperFor(target, freqs, memFreqs)
}

// sweeperFor returns a memoized sweeper for (target, freqs, memFreqs),
// rebuilding only when the target identity, frequency list, or memory
// axis changes. One slot per architecture name: the common serving
// pattern is a stable design-space sweep per target.
func (m *Models) sweeperFor(target backend.Arch, freqs, memFreqs []float64) (*Sweeper, error) {
	m.swMu.Lock()
	defer m.swMu.Unlock()
	if sw := m.sweepers[target.Name]; sw != nil && sw.matches(target, freqs, memFreqs) {
		return sw, nil
	}
	sw, err := m.NewGridSweeper(target, freqs, memFreqs)
	if err != nil {
		return nil, err
	}
	if m.sweepers == nil {
		m.sweepers = map[string]*Sweeper{}
	}
	m.sweepers[target.Name] = sw
	return sw, nil
}
