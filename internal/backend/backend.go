// Package backend defines the substrate boundary of the pipeline: the
// small interface set every layer above the hardware depends on. The
// paper's workflow — collect telemetry, select features, train, predict,
// pick a frequency — is device-agnostic; this package is where that
// agnosticism becomes structural.
//
// A Device exposes an architecture's DVFS table and clock control (what
// nvidia-smi -lgc provides on real hardware). A Sampler produces the 20 ms
// telemetry stream for a running workload (what DCGM provides). Everything
// else in the repository — the dcgm collection framework, the core
// training/prediction pipeline, the governor, the fleet scheduler, and the
// command-line tools — talks to these interfaces only.
//
// Two implementations ship in subpackages: backend/sim wraps the
// analytical simulator (bit-identical to driving gpusim directly), and
// backend/replay serves previously recorded CSV campaigns back through the
// same interface, deterministically. A future adapter over real
// NVML/DCGM bindings would be a third implementation; nothing above this
// package would change.
package backend

import "time"

// DefaultSampleInterval is the paper's 20 ms metric sampling interval.
const DefaultSampleInterval = 20 * time.Millisecond

// DefaultMaxSamplesPerRun caps how many telemetry samples one run
// contributes, bounding dataset size for long workloads.
const DefaultMaxSamplesPerRun = 60

// Workload is an opaque handle to something a Device can run and sample.
// Backends type-assert to their own concrete workload representation; the
// pipeline layers above only ever need the name.
type Workload interface {
	// WorkloadName returns the workload's stable identifier — the value
	// recorded in the telemetry's workload column.
	WorkloadName() string
}

// Named is the minimal Workload: a bare name with no execution semantics.
// It addresses recorded runs on backends (like replay) that identify
// workloads by name alone.
type Named string

// WorkloadName implements Workload.
func (n Named) WorkloadName() string { return string(n) }

// Workloads converts a slice of any concrete workload type to the
// interface form the collection framework consumes.
func Workloads[W Workload](ks []W) []Workload {
	out := make([]Workload, len(ks))
	for i, k := range ks {
		out[i] = k
	}
	return out
}

// SampleConfig parameterizes a Sampler: how telemetry is drawn from one
// run, independent of which runs a campaign performs.
type SampleConfig struct {
	// Interval is the telemetry sampling period; 0 means
	// DefaultSampleInterval.
	Interval time.Duration
	// MaxSamplesPerRun caps samples per run; 0 means
	// DefaultMaxSamplesPerRun, negative means unlimited.
	MaxSamplesPerRun int
	// InputScale is the problem-size factor applied to the workload
	// before running it; 0 means 1.
	InputScale float64
	// Seed drives the backend's sampling-noise stream, if it has one.
	// Equal seeds reproduce equal telemetry exactly.
	Seed int64
}

// WithDefaults resolves zero fields to their documented defaults.
func (c SampleConfig) WithDefaults() SampleConfig {
	if c.Interval == 0 {
		c.Interval = DefaultSampleInterval
	}
	if c.MaxSamplesPerRun == 0 {
		c.MaxSamplesPerRun = DefaultMaxSamplesPerRun
	}
	if c.InputScale == 0 {
		c.InputScale = 1
	}
	return c
}

// Device is one GPU as the pipeline sees it: an architecture (with its
// DVFS table) plus clock control and a telemetry source. Implementations
// must be safe for concurrent use.
type Device interface {
	// Arch returns the device's architecture specification.
	Arch() Arch
	// Kind identifies the backend implementation ("sim", "replay", ...);
	// it is recorded as training-data provenance in saved models.
	Kind() string
	// Clock returns the current core clock in MHz.
	Clock() float64
	// SetClock pins the core clock to f MHz. f must be one of the
	// architecture's supported DVFS configurations.
	SetClock(f float64) error
	// ResetClock restores the default (maximum) core clock. It does not
	// touch the memory clock.
	ResetClock()
	// MemClock returns the current memory clock in MHz (the default
	// P-state when nothing is pinned; 0 when the architecture has no
	// memory axis).
	MemClock() float64
	// SetMemClock pins the memory clock to f MHz. f must be one of the
	// architecture's memory P-states (Arch.MemClocks). Backends that
	// cannot realize off-default memory states (e.g. trace replay of a
	// campaign recorded at the default state) return an error for any
	// target other than the default P-state.
	SetMemClock(f float64) error
	// ResetMemClock restores the default (highest) memory P-state. It
	// does not touch the core clock.
	ResetMemClock()
	// Fork returns an independent device over the same architecture and
	// underlying data, with fresh clock state and, for stochastic
	// backends, a noise stream seeded by seed. Forks are how parallel
	// collection mints per-workload devices deterministically.
	Fork(seed int64) Device
	// NewSampler returns a telemetry sampler over this device. Each
	// sampler owns its own noise stream (seeded from cfg.Seed), so
	// profiling through one sampler is reproducible regardless of what
	// other samplers exist.
	NewSampler(cfg SampleConfig) Sampler
}

// Sampler is the profile module's substrate: it executes a workload once
// at the device's current clock and returns the run's sampled telemetry.
type Sampler interface {
	// Profile runs w once and samples its telemetry. runIndex
	// distinguishes repeat runs at one configuration; backends that
	// serve recorded data use it to pick among recorded repeats.
	Profile(w Workload, runIndex int) (Run, error)
}

// StreamSampler is a Sampler whose telemetry can also be consumed
// incrementally, sample by sample, while the workload runs — the seam an
// online governor needs: it cannot wait for a completed []Run to notice a
// phase change that happened twenty samples ago.
//
// Profile and ProfileStream are two views of one sample stream: for a
// given (workload, runIndex, clock state) the yielded samples are exactly
// Profile's Run.Samples, in order, drawn from the same noise stream for
// stochastic backends. Batch profiling is therefore implemented on top of
// the streaming form, never the other way around.
//
// A stream is scoped to a field set: the yielded samples carry the
// requested fields bit-identical to the full stream's and zero elsewhere.
// Scoping never shifts the noise schedule — a stochastic backend draws
// every field's noise whether or not it synthesizes the field — so which
// fields one run asked for cannot change any later run's values.
type StreamSampler interface {
	Sampler
	// ProfileStream runs w once at the device's current clocks, invoking
	// yield for every telemetry sample as it is produced, with the metric
	// fields outside fields zeroed. A nil yield discards samples and
	// synthesizes no fields at all. The returned Run carries the run's
	// identity and run-level outcomes with Samples nil: retention is the
	// caller's decision, which is what keeps a long-lived control loop
	// free of per-run allocations.
	ProfileStream(w Workload, runIndex int, fields FieldSet, yield func(Sample)) (Run, error)
}
