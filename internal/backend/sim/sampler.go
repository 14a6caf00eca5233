package sim

import (
	"math"
	"math/rand"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/gpusim"
)

// Sampling noise sigmas for telemetry: activities jitter more than the
// power sensor.
const (
	activityNoise = 0.04
	powerNoise    = 0.02
	clockNoise    = 0.002
)

// idleActivityFloor is the residual activity telemetry reports during
// host-bound intervals (driver housekeeping keeps counters slightly warm).
const idleActivityFloor = 0.01

// sampler is the profile module over the simulator: it executes a kernel
// at the device's current clock and samples its telemetry with one seeded
// noise stream per sampler, so a profiling campaign driven through one
// sampler reproduces exactly for equal seeds.
type sampler struct {
	dev *gpusim.Device
	cfg backend.SampleConfig
	rng *rand.Rand
}

func newSampler(dev *gpusim.Device, cfg backend.SampleConfig) *sampler {
	return &sampler{
		dev: dev,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Profile executes w once at the current clock and samples its telemetry.
// It is the batch view of ProfileStream over every field: the yielded
// samples are collected into Run.Samples, so the two forms are
// byte-identical for equal sampler state.
func (c *sampler) Profile(w backend.Workload, runIndex int) (backend.Run, error) {
	var samples []backend.Sample
	run, err := c.ProfileStream(w, runIndex, backend.AllFields, func(s backend.Sample) {
		samples = append(samples, s)
	})
	if err != nil {
		return backend.Run{}, err
	}
	run.Samples = samples
	return run, nil
}

// ProfileStream executes w once at the current clock and yields its
// telemetry sample by sample. Sampling is phase resolved, as real 20 ms
// DCGM telemetry is: intervals that land on GPU-busy stretches report the
// undiluted kernel activities and the active power draw, intervals on
// host-bound stretches report a near-idle GPU. Phases are interleaved with
// Bresenham accumulation so the sample mix matches the run's busy fraction
// exactly; the mean over samples therefore reproduces the whole-run
// averages.
//
// Every field draws its noise deviate, in a fixed order, whether or not
// it is synthesized: fields outside the set (all of them when yield is
// nil) skip only the exp/scale/clamp and read as zero, so a scoped or
// discarding stream leaves the noise schedule identical to a full one.
func (c *sampler) ProfileStream(w backend.Workload, runIndex int, fields backend.FieldSet, yield func(backend.Sample)) (backend.Run, error) {
	raw, err := asKernelProfile(w)
	if err != nil {
		return backend.Run{}, err
	}
	k, err := raw.WithInputScale(c.cfg.InputScale)
	if err != nil {
		return backend.Run{}, err
	}
	exec, err := c.dev.Execute(k)
	if err != nil {
		return backend.Run{}, err
	}
	// An off-default memory P-state is reported as a constant — P-state
	// clocks do not wobble like boost clocks — so recording it draws
	// nothing from the noise stream and leaves default-state telemetry
	// bit-identical to the pre-memory-axis sampler.
	memMHz := 0.0
	if mc := c.dev.MemClock(); mc != c.dev.Arch().MemClocks()[0] {
		memMHz = mc
	}
	run := backend.Run{
		Workload:      exec.Workload,
		Arch:          exec.Arch,
		FreqMHz:       exec.FreqMHz,
		MemFreqMHz:    memMHz,
		RunIndex:      runIndex,
		ExecTimeSec:   exec.TimeSec,
		AvgPowerWatts: exec.AvgPowerWatts,
		EnergyJoules:  exec.EnergyJoules,
	}
	if yield == nil {
		fields = 0
	}
	interval := c.cfg.Interval.Seconds()
	n := int(exec.TimeSec / interval)
	if n < 1 {
		n = 1
	}
	stride := 1
	if c.cfg.MaxSamplesPerRun > 0 && n > c.cfg.MaxSamplesPerRun {
		stride = (n + c.cfg.MaxSamplesPerRun - 1) / c.cfg.MaxSamplesPerRun
	}
	st := exec.Steady
	// Power ripple scales active power so that run-average power stays
	// consistent with the executed run.
	powerScale := exec.AvgPowerWatts / st.PowerWatts
	phase := 0.5 // Bresenham accumulator; 0.5 centers the pattern
	for i := 0; i < n; i += stride {
		t := float64(i) * interval
		// Each emitted sample stands for one 20 ms interval; accumulate
		// the busy fraction once per sample so the active share of the
		// emitted samples matches GPUBusyFrac regardless of stride.
		phase += st.GPUBusyFrac
		active := phase >= 1
		if active {
			phase -= math.Floor(phase)
		}
		var s backend.Sample
		if active {
			s = backend.Sample{
				TimeSec:        t,
				FP64Active:     c.noisyAct(fields.Has(backend.FieldFP64Active), st.ActiveFP64Active),
				FP32Active:     c.noisyAct(fields.Has(backend.FieldFP32Active), st.ActiveFP32Active),
				SMAppClockMHz:  c.scaled(fields.Has(backend.FieldSMAppClock), exec.FreqMHz, clockNoise),
				DRAMActive:     c.noisyAct(fields.Has(backend.FieldDRAMActive), st.ActiveDRAMActive),
				GrEngineActive: c.noisyAct(fields.Has(backend.FieldGrEngineActive), 1),
				GPUUtilization: c.noisyAct(fields.Has(backend.FieldGPUUtilization), 1),
				PowerUsage:     c.scaled(fields.Has(backend.FieldPowerUsage), st.ActivePowerWatts*powerScale, powerNoise),
				SMActive:       c.noisyAct(fields.Has(backend.FieldSMActive), st.ActiveSMActive),
				SMOccupancy:    c.noisyAct(fields.Has(backend.FieldSMOccupancy), st.ActiveSMOcc),
				PCIeTxMBps:     c.scaled(fields.Has(backend.FieldPCIeTxBytes), k.PCIeTxMBps, activityNoise),
				PCIeRxMBps:     c.scaled(fields.Has(backend.FieldPCIeRxBytes), k.PCIeRxMBps, activityNoise),
				MemClockMHz:    memMHz,
			}
		} else {
			s = backend.Sample{
				TimeSec:        t,
				FP64Active:     c.idleAct(fields.Has(backend.FieldFP64Active)),
				FP32Active:     c.idleAct(fields.Has(backend.FieldFP32Active)),
				SMAppClockMHz:  c.scaled(fields.Has(backend.FieldSMAppClock), exec.FreqMHz, clockNoise),
				DRAMActive:     c.idleAct(fields.Has(backend.FieldDRAMActive)),
				GrEngineActive: c.idleAct(fields.Has(backend.FieldGrEngineActive)),
				GPUUtilization: c.idleAct(fields.Has(backend.FieldGPUUtilization)),
				PowerUsage:     c.scaled(fields.Has(backend.FieldPowerUsage), st.IdlePowerWatts*powerScale, powerNoise),
				SMActive:       c.idleAct(fields.Has(backend.FieldSMActive)),
				SMOccupancy:    c.idleAct(fields.Has(backend.FieldSMOccupancy)),
				PCIeTxMBps:     c.scaled(fields.Has(backend.FieldPCIeTxBytes), k.PCIeTxMBps, activityNoise),
				PCIeRxMBps:     c.scaled(fields.Has(backend.FieldPCIeRxBytes), k.PCIeRxMBps, activityNoise),
				MemClockMHz:    memMHz,
			}
		}
		if yield != nil {
			yield(s)
		}
	}
	return run, nil
}

// idleAct draws one deviate and, when want is set, returns the near-idle
// activity it implies; otherwise 0.
func (c *sampler) idleAct(want bool) float64 {
	z := c.rng.NormFloat64()
	if !want {
		return 0
	}
	return idleActivityFloor * math.Abs(z)
}

// scaled draws one deviate and, when want is set, returns v under
// mean-preserving lognormal noise of the given sigma; otherwise 0.
func (c *sampler) scaled(want bool, v, sigma float64) float64 {
	z := c.rng.NormFloat64()
	if !want {
		return 0
	}
	return v * math.Exp(z*sigma-sigma*sigma/2)
}

// noisyAct is scaled at the activity sigma, clamped to [0, 1].
func (c *sampler) noisyAct(want bool, v float64) float64 {
	out := c.scaled(want, v, activityNoise)
	if out < 0 {
		return 0
	}
	if out > 1 {
		return 1
	}
	return out
}
