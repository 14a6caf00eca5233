package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// specJSON holds the benchmark's fixed parameters: rates, limits and
// sizes, plus the layer→end-to-end prediction table. They live beside the
// code rather than in BENCHMARK.json, whose keys are fixed.
//
//go:embed spec.json
var specJSON []byte

type servingSpec struct {
	Path           string    `json:"path"`
	RefRPS         float64   `json:"ref_rps"`
	RefShare       float64   `json:"ref_share"` // of the measuring time; the ladder gets the rest
	P99LimitMS     float64   `json:"p99_limit_ms"`
	LadderRPS      []float64 `json:"ladder_rps"`
	StepSeconds    float64   `json:"step_seconds"`
	WarmupRequests int       `json:"warmup_requests"`
	TraceSample    int       `json:"trace_sample"`
}

func (s servingSpec) limit() time.Duration {
	return time.Duration(s.P99LimitMS * float64(time.Millisecond))
}

type governSpec struct {
	Phases      []string `json:"phases"`
	Items       int      `json:"items"`
	WarmupItems int      `json:"warmup_items"`
	Period      int      `json:"period"`
	PhaseCache  int      `json:"phase_cache"`
}

type prediction struct {
	Layer    string `json:"layer"`
	Moves    string `json:"moves"` // an end-to-end metric, or "none"
	Workload string `json:"workload"`
	Why      string `json:"why"`
}

type benchSpec struct {
	SetupRepeats     int                    `json:"setup_repeats"`
	Replicas         int                    `json:"replicas"`
	ZipfS            float64                `json:"zipf_s"`
	RequestTimeoutMS float64                `json:"request_timeout_ms"`
	Serving          map[string]servingSpec `json:"serving"`
	Govern           governSpec             `json:"govern"`
	Predictions      []prediction           `json:"predictions"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}
