package dcgm

import (
	"fmt"

	"gpudvfs/internal/backend"
)

// Stream is the profile module's streaming session: a persistent sampler
// over one device that executes successive governed runs and delivers each
// run's telemetry incrementally, sample by sample, while the run executes.
//
// Where the batch Collector orchestrates a campaign (pin clock, run,
// return completed []Run, restore), a Stream serves a control loop: it
// never touches the clocks — runs execute at whatever (core, mem) pair the
// caller has pinned — and it holds exactly one sampler (one noise stream)
// across every run, so a long-lived loop's steady state performs no per-run
// allocation and reproduces exactly for equal seeds.
//
// Like a DCGM watch on a field group, a session is scoped to the fields
// its consumer reads: the others are never synthesized and read as zero,
// while the requested ones stay bit-identical to a full session's.
type Stream struct {
	dev    backend.Device
	smp    backend.StreamSampler
	fields backend.FieldSet
}

// Stream returns a streaming profiling session over the collector's device
// and sampling configuration, delivering the given fields (every field
// when none are given). It fails on an unknown field or when the
// backend's sampler does not support incremental delivery.
func (c *Collector) Stream(fields ...FieldID) (*Stream, error) {
	fs, err := fieldSet(fields)
	if err != nil {
		return nil, err
	}
	ss, ok := c.smp.(backend.StreamSampler)
	if !ok {
		return nil, fmt.Errorf("dcgm: %T cannot stream telemetry", c.smp)
	}
	return &Stream{dev: c.dev, smp: ss, fields: fs}, nil
}

// Device returns the device the stream samples.
func (s *Stream) Device() backend.Device { return s.dev }

// Run executes w once at the device's current clocks, invoking yield for
// every telemetry sample as it is produced (nil discards), and returns the
// run's identity and run-level outcomes with Samples nil. runIndex
// distinguishes repeat runs; backends serving recorded data use it to pick
// among recorded repeats.
func (s *Stream) Run(w backend.Workload, runIndex int, yield func(backend.Sample)) (Run, error) {
	run, err := s.smp.ProfileStream(w, runIndex, s.fields, yield)
	if err != nil {
		return Run{}, fmt.Errorf("dcgm: streaming %s: %w", w.WorkloadName(), err)
	}
	return run, nil
}
