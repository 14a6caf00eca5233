package main

import (
	"fmt"
	"math/rand"
	"time"
)

// The probes measure the layers a workload does not cross, in its traced
// run only, so every traced run reports every per-layer metric. A probe
// is a shortened copy of the workload that crosses the layer, on the same
// seed; its numbers describe the layer, not the workload being traced.

// probeShare is the share of the measuring time a probe's load phase gets.
const probeShare = 0.3

func servingProbe(e *env) error {
	sp := e.spec.Serving["select-hot"]
	s, _, err := newServingRun(e, sp, 1)
	if err != nil {
		return err
	}
	defer s.close()
	next, err := zipfKeys(rand.New(rand.NewSource(e.seed)), e.spec.ZipfS, len(s.keys))
	if err != nil {
		return err
	}
	return s.traced(rand.New(rand.NewSource(e.seed+1)), next, e.duration(probeShare))
}

func governProbe(e *env) error {
	sp := e.spec.Govern
	in, err := newGovernInputs(sp, e.seed, sp.Items/5)
	if err != nil {
		return err
	}
	m, err := buildModels(e.seed)
	if err != nil {
		return err
	}
	res, err := governMeasure(m, sp, in, 0)
	if err != nil {
		return err
	}
	return governLayers(e, m, sp, in, res)
}

// traceOverhead runs fn once more with a span per unit of work and
// returns how much slower it ran than untraced, in percent of rate.
func traceOverhead(untracedRate float64, fn func() (float64, error)) (float64, error) {
	start := time.Now()
	rate, err := fn()
	if err != nil {
		return 0, err
	}
	if rate <= 0 {
		return 0, fmt.Errorf("traced rerun measured no work in %v", time.Since(start))
	}
	return 100 * (untracedRate/rate - 1), nil
}
