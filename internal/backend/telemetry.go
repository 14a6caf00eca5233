package backend

// Sample is one telemetry interval: the 11 instantaneous utilization
// metrics of §4.1 (the twelfth metric, exec_time, is a run-level value on
// Run).
type Sample struct {
	TimeSec        float64
	FP64Active     float64
	FP32Active     float64
	SMAppClockMHz  float64
	DRAMActive     float64
	GrEngineActive float64
	GPUUtilization float64
	PowerUsage     float64 // watts
	SMActive       float64
	SMOccupancy    float64
	PCIeTxMBps     float64
	PCIeRxMBps     float64

	// MemClockMHz is the memory clock during the interval when the run
	// was pinned to an off-default memory P-state, and 0 at the default
	// state. P-state clocks hold steady (no boost-clock wobble), so the
	// value carries no sampling noise. The historical 17-column CSV
	// schema predates the memory axis and does not persist this field;
	// recorded campaigns replay at the default P-state only.
	MemClockMHz float64
}

// FPActive returns the combined floating-point pipe activity, the
// aggregate feature the paper calls fp_active.
func (s Sample) FPActive() float64 { return s.FP64Active + s.FP32Active }

// FieldSet selects which of a Sample's 11 metric fields a streaming
// session synthesizes, the way a DCGM field group scopes a watch: fields
// outside the set read as zero. TimeSec and MemClockMHz are interval
// metadata, not metric fields, and are always set. Consumers name fields
// by their DCGM identifiers (dcgm.FieldID); this bitmask is the form the
// samplers take.
type FieldSet uint16

// One bit per metric field.
const (
	FieldFP64Active FieldSet = 1 << iota
	FieldFP32Active
	FieldSMAppClock
	FieldDRAMActive
	FieldGrEngineActive
	FieldGPUUtilization
	FieldPowerUsage
	FieldSMActive
	FieldSMOccupancy
	FieldPCIeTxBytes
	FieldPCIeRxBytes

	// AllFields is every metric field: the batch Profile view.
	AllFields FieldSet = 1<<iota - 1
)

// Has reports whether every field in f is in the set.
func (fs FieldSet) Has(f FieldSet) bool { return fs&f == f }

// Mask returns s with every metric field outside the set zeroed.
func (fs FieldSet) Mask(s Sample) Sample {
	zero := func(f FieldSet, v *float64) {
		if !fs.Has(f) {
			*v = 0
		}
	}
	zero(FieldFP64Active, &s.FP64Active)
	zero(FieldFP32Active, &s.FP32Active)
	zero(FieldSMAppClock, &s.SMAppClockMHz)
	zero(FieldDRAMActive, &s.DRAMActive)
	zero(FieldGrEngineActive, &s.GrEngineActive)
	zero(FieldGPUUtilization, &s.GPUUtilization)
	zero(FieldPowerUsage, &s.PowerUsage)
	zero(FieldSMActive, &s.SMActive)
	zero(FieldSMOccupancy, &s.SMOccupancy)
	zero(FieldPCIeTxBytes, &s.PCIeTxMBps)
	zero(FieldPCIeRxBytes, &s.PCIeRxMBps)
	return s
}

// Run is one profiled execution: identity, run-level outcomes, and the
// sampled telemetry.
type Run struct {
	Workload string
	Arch     string
	FreqMHz  float64
	// MemFreqMHz is the pinned memory P-state for the run, 0 when the
	// run executed at the architecture's default memory clock. The zero
	// convention keeps every pre-existing (1-D) run value bit-identical.
	MemFreqMHz float64
	RunIndex   int

	ExecTimeSec   float64
	AvgPowerWatts float64
	EnergyJoules  float64

	Samples []Sample
}

// MeanSample averages the run's telemetry samples; it panics if the run
// has none (samplers always produce at least one).
func (r Run) MeanSample() Sample {
	if len(r.Samples) == 0 {
		panic("backend: MeanSample on run without samples")
	}
	var m Sample
	for _, s := range r.Samples {
		m.TimeSec += s.TimeSec
		m.FP64Active += s.FP64Active
		m.FP32Active += s.FP32Active
		m.SMAppClockMHz += s.SMAppClockMHz
		m.DRAMActive += s.DRAMActive
		m.GrEngineActive += s.GrEngineActive
		m.GPUUtilization += s.GPUUtilization
		m.PowerUsage += s.PowerUsage
		m.SMActive += s.SMActive
		m.SMOccupancy += s.SMOccupancy
		m.PCIeTxMBps += s.PCIeTxMBps
		m.PCIeRxMBps += s.PCIeRxMBps
		m.MemClockMHz += s.MemClockMHz
	}
	n := float64(len(r.Samples))
	m.TimeSec /= n
	m.FP64Active /= n
	m.FP32Active /= n
	m.SMAppClockMHz /= n
	m.DRAMActive /= n
	m.GrEngineActive /= n
	m.GPUUtilization /= n
	m.PowerUsage /= n
	m.SMActive /= n
	m.SMOccupancy /= n
	m.PCIeTxMBps /= n
	m.PCIeRxMBps /= n
	m.MemClockMHz /= n
	return m
}
