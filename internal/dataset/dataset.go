// Package dataset turns telemetry runs collected by the dcgm framework
// into the feature/target matrices the models train and predict on.
//
// Feature and target normalization is the one place this reproduction
// deliberately departs from the paper's literal description (see
// DESIGN.md): targets are the TDP fraction (power model) and the slowdown
// relative to the maximum clock (time model), and sm_app_clock is fed as a
// fraction of the maximum clock. Normalization is what makes a model
// trained on GA100 (500 W TDP, 1410 MHz) transfer to GV100 (250 W,
// 1380 MHz), the portability property the paper demonstrates.
package dataset

import (
	"errors"
	"fmt"
	"sort"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dcgm"
)

// PaperFeatures is the feature set the paper selects via mutual
// information (§4.2.1): floating-point activity, DRAM activity, and the
// (normalized) SM application clock.
var PaperFeatures = []string{"fp_active", "dram_active", "sm_app_clock"}

// CandidateFeatures is the full set of 10 candidate features examined in
// the paper's Figure 3 (the 12 collected metrics minus the two
// predictands, with the FP pipes merged into fp_active).
var CandidateFeatures = []string{
	"fp_active", "sm_app_clock", "dram_active", "gr_engine_active",
	"gpu_utilization", "sm_active", "sm_occupancy",
	"pcie_tx_mbps", "pcie_rx_mbps", "fp64_active",
}

// MemFeature is the memory-clock feature name: the memory clock as a
// fraction of the architecture's default (highest) memory P-state, the
// normalization that makes a model transfer across architectures with
// different HBM clocks, mirroring sm_app_clock's treatment. It is not in
// PaperFeatures — the paper sweeps core frequency only — but models that
// include it can predict across the 2-D (core × mem) design space.
const MemFeature = "mem_app_clock"

// extractor pulls one feature value from a sample; clock-like features
// need the architecture's normalizers (maximum core clock, default memory
// P-state). defMem ≤ 0 disables memory normalization: samples taken at
// the default state (MemClockMHz 0) then extract as exactly 1.
type extractor func(s dcgm.Sample, maxFreq, defMem float64) float64

var extractors = map[string]extractor{
	"fp_active":        func(s dcgm.Sample, _, _ float64) float64 { return s.FPActive() },
	"fp64_active":      func(s dcgm.Sample, _, _ float64) float64 { return s.FP64Active },
	"fp32_active":      func(s dcgm.Sample, _, _ float64) float64 { return s.FP32Active },
	"sm_app_clock":     func(s dcgm.Sample, maxF, _ float64) float64 { return s.SMAppClockMHz / maxF },
	MemFeature:         func(s dcgm.Sample, _, defMem float64) float64 { return MemRatio(s.MemClockMHz, defMem) },
	"dram_active":      func(s dcgm.Sample, _, _ float64) float64 { return s.DRAMActive },
	"gr_engine_active": func(s dcgm.Sample, _, _ float64) float64 { return s.GrEngineActive },
	"gpu_utilization":  func(s dcgm.Sample, _, _ float64) float64 { return s.GPUUtilization },
	"sm_active":        func(s dcgm.Sample, _, _ float64) float64 { return s.SMActive },
	"sm_occupancy":     func(s dcgm.Sample, _, _ float64) float64 { return s.SMOccupancy },
	"pcie_tx_mbps":     func(s dcgm.Sample, _, _ float64) float64 { return s.PCIeTxMBps / 1e4 },
	"pcie_rx_mbps":     func(s dcgm.Sample, _, _ float64) float64 { return s.PCIeRxMBps / 1e4 },
}

// MemRatio normalizes a sampled memory clock against the default P-state.
// A zero memMHz means the sample was taken at the default state, and a
// non-positive defMem means the architecture has no memory axis; both
// resolve to exactly 1, which keeps every pre-memory-axis feature vector
// bit-identical.
func MemRatio(memMHz, defMem float64) float64 {
	if memMHz == 0 || defMem <= 0 {
		return 1
	}
	return memMHz / defMem
}

// FeatureNames lists every extractable feature, sorted.
func FeatureNames() []string {
	names := make([]string, 0, len(extractors))
	for n := range extractors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Point is one training/evaluation observation.
type Point struct {
	Workload string
	FreqMHz  float64
	Features []float64 // aligned with Dataset.FeatureNames
	Power    float64   // fraction of TDP
	Slowdown float64   // exec time / exec time at max clock
}

// Dataset is a set of observations with a fixed feature layout, built for
// one architecture.
type Dataset struct {
	Arch         string
	TDPWatts     float64
	MaxFreqMHz   float64
	FeatureNames []string
	Points       []Point
}

// Options configures Build.
type Options struct {
	// Features to extract; nil means PaperFeatures.
	Features []string
	// PerSample emits one point per telemetry sample instead of one per
	// run (run points use the mean of the run's samples). Per-run is the
	// default: it is two orders of magnitude smaller and the paper's
	// features are near-constant within a run anyway.
	PerSample bool
}

// Build assembles a dataset from collected runs. Every workload present
// must include at least one run at the architecture's maximum clock: that
// run's mean execution time is the slowdown reference.
func Build(arch backend.Arch, runs []dcgm.Run, opts Options) (*Dataset, error) {
	if len(runs) == 0 {
		return nil, errors.New("dataset: no runs")
	}
	features := opts.Features
	if features == nil {
		features = PaperFeatures
	}
	exts := make([]extractor, len(features))
	for i, name := range features {
		e, ok := extractors[name]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown feature %q (have %v)", name, FeatureNames())
		}
		exts[i] = e
	}

	refTime, err := referenceTimes(arch, runs)
	if err != nil {
		return nil, err
	}

	ds := &Dataset{
		Arch:         arch.Name,
		TDPWatts:     arch.TDPWatts,
		MaxFreqMHz:   arch.MaxFreqMHz,
		FeatureNames: append([]string(nil), features...),
	}
	for _, r := range runs {
		if len(r.Samples) == 0 {
			return nil, fmt.Errorf("dataset: run %s@%v has no samples", r.Workload, r.FreqMHz)
		}
		ref := refTime[r.Workload]
		samples := r.Samples
		if !opts.PerSample {
			samples = []dcgm.Sample{r.MeanSample()}
		}
		for _, s := range samples {
			p := Point{
				Workload: r.Workload,
				FreqMHz:  r.FreqMHz,
				Features: make([]float64, len(exts)),
				Power:    s.PowerUsage / arch.TDPWatts,
				Slowdown: r.ExecTimeSec / ref,
			}
			if !opts.PerSample {
				// Run-level points use the run's average power, which is
				// what the paper's power model targets.
				p.Power = r.AvgPowerWatts / arch.TDPWatts
			}
			for i, e := range exts {
				p.Features[i] = e(s, arch.MaxFreqMHz, arch.DefaultMemClock())
			}
			ds.Points = append(ds.Points, p)
		}
	}
	return ds, nil
}

func referenceTimes(arch backend.Arch, runs []dcgm.Run) (map[string]float64, error) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	names := map[string]bool{}
	for _, r := range runs {
		names[r.Workload] = true
		if r.FreqMHz == arch.MaxFreqMHz {
			sum[r.Workload] += r.ExecTimeSec
			cnt[r.Workload]++
		}
	}
	out := make(map[string]float64, len(sum))
	for w := range names {
		if cnt[w] == 0 {
			return nil, fmt.Errorf("dataset: workload %s has no run at max clock %v MHz (needed as slowdown reference)", w, arch.MaxFreqMHz)
		}
		out[w] = sum[w] / float64(cnt[w])
	}
	return out, nil
}

// X returns the feature matrix, one row per point.
func (d *Dataset) X() [][]float64 {
	out := make([][]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Features
	}
	return out
}

// YPower returns the power targets (TDP fractions), aligned with X.
func (d *Dataset) YPower() []float64 {
	out := make([]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Power
	}
	return out
}

// YSlowdown returns the slowdown targets, aligned with X.
func (d *Dataset) YSlowdown() []float64 {
	out := make([]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Slowdown
	}
	return out
}

// Workloads lists the distinct workloads present, sorted.
func (d *Dataset) Workloads() []string {
	set := map[string]bool{}
	for _, p := range d.Points {
		set[p.Workload] = true
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Filter returns a shallow-copied dataset containing only the points for
// which keep returns true.
func (d *Dataset) Filter(keep func(Point) bool) *Dataset {
	out := &Dataset{
		Arch:         d.Arch,
		TDPWatts:     d.TDPWatts,
		MaxFreqMHz:   d.MaxFreqMHz,
		FeatureNames: d.FeatureNames,
	}
	for _, p := range d.Points {
		if keep(p) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Column extracts a single feature column by name.
func (d *Dataset) Column(feature string) ([]float64, error) {
	idx := -1
	for i, n := range d.FeatureNames {
		if n == feature {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("dataset: feature %q not in dataset (have %v)", feature, d.FeatureNames)
	}
	out := make([]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Features[idx]
	}
	return out, nil
}

// FeatureVector builds a model input row from a telemetry sample with the
// sm_app_clock feature overridden to freqMHz — the online-phase trick of
// §4: features measured once at the maximum clock are reused across the
// whole DVFS space, with only the clock feature swapped.
func FeatureVector(features []string, s dcgm.Sample, freqMHz, maxFreqMHz float64) ([]float64, error) {
	out := make([]float64, len(features))
	if err := FeatureVectorInto(out, features, s, freqMHz, maxFreqMHz); err != nil {
		return nil, err
	}
	return out, nil
}

// Feature returns one named feature of a telemetry sample at the sample's
// own clocks — the value FeatureVector puts in that column when freqMHz is
// the sample's clock.
func Feature(name string, s dcgm.Sample, maxFreqMHz float64) (float64, error) {
	e, ok := extractors[name]
	if !ok {
		return 0, fmt.Errorf("dataset: unknown feature %q", name)
	}
	return e(s, maxFreqMHz, 0), nil
}

// FeatureVectorInto fills dst (len(features)) like FeatureVector without
// allocating — the entry point the serving hot path uses to rebuild sweep
// rows in place. The memory-clock feature, if present, takes the sample's
// own (default-normalized) value; use FeatureVectorGridInto to override
// it for 2-D sweeps.
func FeatureVectorInto(dst []float64, features []string, s dcgm.Sample, freqMHz, maxFreqMHz float64) error {
	return FeatureVectorGridInto(dst, features, s, freqMHz, maxFreqMHz, MemRatio(s.MemClockMHz, 0))
}

// FeatureVectorGridInto is FeatureVectorInto with both clock-like columns
// overridden: sm_app_clock to freqMHz/maxFreqMHz and mem_app_clock to
// memRatio (the candidate memory clock as a fraction of the default
// P-state) — the 2-D extension of §4's online trick, where one max-clock
// profiling run fans out over the whole (core × mem) grid by swapping
// only the clock features.
func FeatureVectorGridInto(dst []float64, features []string, s dcgm.Sample, freqMHz, maxFreqMHz, memRatio float64) error {
	if len(dst) != len(features) {
		return fmt.Errorf("dataset: FeatureVectorInto dst len %d, want %d", len(dst), len(features))
	}
	for i, name := range features {
		switch name {
		case "sm_app_clock":
			dst[i] = freqMHz / maxFreqMHz
			continue
		case MemFeature:
			dst[i] = memRatio
			continue
		}
		e, ok := extractors[name]
		if !ok {
			return fmt.Errorf("dataset: unknown feature %q", name)
		}
		dst[i] = e(s, maxFreqMHz, 0)
	}
	return nil
}
