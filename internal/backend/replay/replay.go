// Package replay implements the backend interfaces over a recorded
// collection campaign: a CSV file (or in-memory run set) previously
// written by the dcgm framework is indexed by (workload, frequency) and
// served back verbatim. Replay is fully deterministic — the same trace
// always yields byte-identical telemetry, predictions, and frequency
// selections — which makes it the reference backend for regression
// pinning, cross-backend differential tests, and offline development
// without a simulator or GPU.
//
// Replay serves data instantly by default. Options.TimeCompression adds
// real-time pacing: each served run sleeps its recorded execution time
// divided by the compression factor, emulating a live campaign's wall
// clock without affecting any returned value.
package replay

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpudvfs/internal/backend"
)

// Options configures trace interpretation.
type Options struct {
	// Arch overrides the architecture derived from the trace's arch
	// column. Leave zero to resolve the recorded name via
	// backend.ArchByName.
	Arch backend.Arch
	// TimeCompression > 0 paces replay in real time: serving a run sleeps
	// its recorded execution time divided by this factor (e.g. 100 replays
	// a 2 s run in 20 ms). 0 (the default) serves instantly. Pacing never
	// changes served values, only wall-clock behaviour.
	TimeCompression float64
}

// trace is the immutable, shareable index of a recorded campaign.
type trace struct {
	arch backend.Arch
	// runs indexes the recording by workload and frequency; each list is
	// ordered by recorded run index.
	runs map[string]map[float64][]backend.Run
	opts Options
}

// Device implements backend.Device over a recorded campaign. Forked
// devices share the (read-only) trace index; clock state is per-device.
type Device struct {
	tr *trace

	mu    sync.Mutex
	clock float64
}

// New returns a replay device over a recorded run set. All runs must
// carry the same architecture name, which must resolve via
// backend.ArchByName unless opts.Arch overrides it.
func New(runs []backend.Run, opts Options) (*Device, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("replay: trace has no runs")
	}
	if opts.TimeCompression < 0 {
		return nil, fmt.Errorf("replay: negative time compression %v", opts.TimeCompression)
	}
	archName := runs[0].Arch
	for _, r := range runs {
		if r.Arch != archName {
			return nil, fmt.Errorf("replay: trace mixes architectures %q and %q", archName, r.Arch)
		}
		if len(r.Samples) == 0 {
			return nil, fmt.Errorf("replay: run %s@%v has no samples", r.Workload, r.FreqMHz)
		}
	}
	arch := opts.Arch
	if arch.Name == "" {
		var err error
		arch, err = backend.ArchByName(archName)
		if err != nil {
			return nil, fmt.Errorf("replay: resolving trace architecture: %w", err)
		}
	}
	idx := make(map[string]map[float64][]backend.Run)
	for _, r := range runs {
		byFreq := idx[r.Workload]
		if byFreq == nil {
			byFreq = make(map[float64][]backend.Run)
			idx[r.Workload] = byFreq
		}
		byFreq[r.FreqMHz] = append(byFreq[r.FreqMHz], r)
	}
	for _, byFreq := range idx {
		for _, list := range byFreq {
			sort.SliceStable(list, func(i, j int) bool { return list[i].RunIndex < list[j].RunIndex })
		}
	}
	return &Device{
		tr:    &trace{arch: arch, runs: idx, opts: opts},
		clock: arch.MaxFreqMHz,
	}, nil
}

// LoadFile reads a CSV recording written by the dcgm framework and
// returns a replay device over it.
func LoadFile(path string, opts Options) (*Device, error) {
	runs, err := backend.ReadRunsFile(path)
	if err != nil {
		return nil, err
	}
	return New(runs, opts)
}

// Arch returns the trace's architecture specification.
func (d *Device) Arch() backend.Arch { return d.tr.arch }

// Kind identifies the backend implementation.
func (d *Device) Kind() string { return "replay" }

// Clock returns the current core clock in MHz.
func (d *Device) Clock() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// SetClock pins the core clock to f MHz. f must be one of the
// architecture's supported DVFS configurations; whether the trace holds
// data for it is checked at profiling time, per workload.
func (d *Device) SetClock(f float64) error {
	if !d.tr.arch.IsSupported(f) {
		return fmt.Errorf("replay: %s does not support %v MHz (range [%v:%v] step %v)",
			d.tr.arch.Name, f, d.tr.arch.MinFreqMHz, d.tr.arch.MaxFreqMHz, d.tr.arch.StepMHz)
	}
	d.mu.Lock()
	d.clock = f
	d.mu.Unlock()
	return nil
}

// ResetClock restores the default (maximum) core clock.
func (d *Device) ResetClock() {
	d.mu.Lock()
	d.clock = d.tr.arch.MaxFreqMHz
	d.mu.Unlock()
}

// MemClock returns the memory clock, always the architecture's default
// P-state: the CSV schema predates the memory axis, so recorded
// campaigns hold default-state data only.
func (d *Device) MemClock() float64 { return d.tr.arch.DefaultMemClock() }

// SetMemClock accepts only the default memory P-state. Traces carry no
// off-default memory data, so any other target is an error rather than a
// silently wrong replay.
func (d *Device) SetMemClock(f float64) error {
	if def := d.tr.arch.DefaultMemClock(); f != def {
		return fmt.Errorf("replay: trace was recorded at the default memory P-state (%v MHz); cannot replay %v MHz", def, f)
	}
	return nil
}

// ResetMemClock is a no-op: replay always serves default-P-state data.
func (d *Device) ResetMemClock() {}

// Fork returns a fresh device over the same trace at the default clock.
// Replay is deterministic, so the seed is ignored — forks exist to give
// parallel collectors independent clock state, and every fork serves
// exactly what the root device would.
func (d *Device) Fork(int64) backend.Device {
	return &Device{tr: d.tr, clock: d.tr.arch.MaxFreqMHz}
}

// Workloads lists the recorded workload names in sorted order.
func (d *Device) Workloads() []string {
	out := make([]string, 0, len(d.tr.runs))
	for name := range d.tr.runs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Freqs lists the recorded frequencies for one workload in ascending
// order; nil if the workload is not in the trace.
func (d *Device) Freqs(workload string) []float64 {
	byFreq := d.tr.runs[workload]
	if byFreq == nil {
		return nil
	}
	out := make([]float64, 0, len(byFreq))
	for f := range byFreq {
		out = append(out, f)
	}
	sort.Float64s(out)
	return out
}

// NewSampler returns a sampler serving the device's trace. The sampling
// config is validated, not used: a recording's interval, sample cap, and
// noise are baked in, and replay cannot rescale the problem size.
func (d *Device) NewSampler(cfg backend.SampleConfig) backend.Sampler {
	return &sampler{dev: d, cfg: cfg.WithDefaults()}
}

type sampler struct {
	dev *Device
	cfg backend.SampleConfig
}

// Profile serves the recorded run for (w, current clock, runIndex). When
// the recording holds fewer runs at that clock than requested, indices
// wrap around — a 3-run recording serves any campaign length
// deterministically.
func (c *sampler) Profile(w backend.Workload, runIndex int) (backend.Run, error) {
	run, err := c.lookup(w, runIndex)
	if err != nil {
		return backend.Run{}, err
	}
	if tc := c.dev.tr.opts.TimeCompression; tc > 0 {
		time.Sleep(time.Duration(run.ExecTimeSec / tc * float64(time.Second)))
	}
	return run, nil
}

// ProfileStream serves the recorded run for (w, current clock, runIndex)
// sample by sample, implementing backend.StreamSampler over a recording:
// each stored sample is yielded in recorded order, and the returned Run
// carries the run-level outcomes with Samples nil. Under TimeCompression
// the recorded execution time is spread evenly across the samples, so a
// streaming consumer sees telemetry arrive at the recording's (compressed)
// cadence instead of all at once at the end. Metric fields outside fields
// are zeroed in the yielded copies; the recording itself is never
// written.
func (c *sampler) ProfileStream(w backend.Workload, runIndex int, fields backend.FieldSet, yield func(backend.Sample)) (backend.Run, error) {
	run, err := c.lookup(w, runIndex)
	if err != nil {
		return backend.Run{}, err
	}
	var pause time.Duration
	if tc := c.dev.tr.opts.TimeCompression; tc > 0 && len(run.Samples) > 0 {
		pause = time.Duration(run.ExecTimeSec / tc / float64(len(run.Samples)) * float64(time.Second))
	}
	for i := range run.Samples {
		if pause > 0 {
			time.Sleep(pause)
		}
		if yield != nil {
			yield(fields.Mask(run.Samples[i]))
		}
	}
	run.Samples = nil
	return run, nil
}

// lookup resolves the recorded run for (w, current clock, runIndex),
// without pacing.
func (c *sampler) lookup(w backend.Workload, runIndex int) (backend.Run, error) {
	if c.cfg.InputScale != 1 {
		return backend.Run{}, fmt.Errorf("replay: input scaling (%v) is not supported; recordings fix the problem size", c.cfg.InputScale)
	}
	if runIndex < 0 {
		return backend.Run{}, fmt.Errorf("replay: negative run index %d", runIndex)
	}
	name := w.WorkloadName()
	byFreq := c.dev.tr.runs[name]
	if byFreq == nil {
		return backend.Run{}, fmt.Errorf("replay: workload %q is not in the trace (have %v)", name, c.dev.Workloads())
	}
	clock := c.dev.Clock()
	list := byFreq[clock]
	if len(list) == 0 {
		return backend.Run{}, fmt.Errorf("replay: no recorded runs for %s at %v MHz (have %v)", name, clock, formatFreqs(c.dev.Freqs(name)))
	}
	return list[runIndex%len(list)], nil
}

func formatFreqs(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return out
}
