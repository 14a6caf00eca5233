package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/governor"
	"gpudvfs/internal/trace"
	"gpudvfs/internal/workloads"
)

// timedStream hands the governor its items and stamps each pull, so item
// i's latency is the time from its pull to the next one: the governor's
// whole step on that item.
type timedStream struct {
	seq   *workloads.Sequence
	last  time.Time
	lats  []float64 // ns
	first bool
	tr    *tracer // when set, each item is also recorded as a span
}

func (s *timedStream) Next() (backend.Workload, bool) {
	now := time.Now()
	if s.first {
		s.lats = append(s.lats, float64(now.Sub(s.last)))
		if s.tr != nil {
			s.tr.record("governor.item", int64(len(s.lats)-1), -1, s.last, now.Sub(s.last))
		}
	}
	s.first, s.last = true, now
	return s.seq.Next()
}

// governInputs is the seeded governed stream. The sequence is built once
// and rewound for every run, so no run's timing includes collecting the
// garbage of the previous run's input.
type governInputs struct {
	phases []sim.KernelProfile
	period int
	items  int
	seed   int64
	seq    *workloads.Sequence
}

func newGovernInputs(sp governSpec, seed int64, items int) (governInputs, error) {
	in := governInputs{period: sp.Period, items: items, seed: seed}
	for _, n := range sp.Phases {
		kp, err := workloads.ByName(n)
		if err != nil {
			return in, err
		}
		in.phases = append(in.phases, kp)
	}
	in.seq = workloads.PhaseCycle(in.phases, in.period, in.items)
	return in, nil
}

func (in governInputs) stream() *workloads.Sequence {
	in.seq.Reset()
	return in.seq
}

// cycleLen is the number of items in one rotation through every phase.
func (in governInputs) cycleLen() int { return len(in.phases) * in.period }

// cycles sums item latencies over each whole rotation through the phases.
// Item times fall into two groups, the slower one about a third slower
// and holding 40–45% of the items, so a single item's median sits at the
// edge between the groups and jumps from one to the other between seeds
// and host states; a rotation's time holds both groups in a share the
// stream fixes.
func cycles(lats []float64, n int) []float64 {
	out := make([]float64, 0, len(lats)/n)
	for i := 0; i+n <= len(lats); i += n {
		sum := 0.0
		for _, l := range lats[i : i+n] {
			sum += l
		}
		out = append(out, sum)
	}
	return out
}

func governConfig(sp governSpec, seed int64) governor.Config {
	cfg := governor.DefaultConfig()
	cfg.ProfileSeed = seed
	cfg.PhaseCacheSize = sp.PhaseCache
	return cfg
}

// governOnce runs one fresh governor over the stream on a device forked
// from seed and checks its report.
func governOnce(m *core.Models, sp governSpec, in governInputs, lats []float64, tr *tracer) (governor.RunReport, []float64, *governor.Governor, time.Duration, error) {
	dev, err := sim.NewByName("GA100", in.seed)
	if err != nil {
		return governor.RunReport{}, nil, nil, 0, err
	}
	g, err := governor.New(dev, m, governConfig(sp, in.seed))
	if err != nil {
		return governor.RunReport{}, nil, nil, 0, err
	}
	ts := &timedStream{seq: in.stream(), lats: lats[:0], tr: tr}
	start := time.Now()
	rep, err := g.Run(context.Background(), ts)
	wall := time.Since(start)
	if err != nil {
		return rep, nil, nil, 0, err
	}
	if rep.Runs != in.items {
		return rep, nil, nil, 0, fmt.Errorf("governor ran %d items of a %d-item stream", rep.Runs, in.items)
	}
	for _, v := range []float64{rep.EnergyJoules, rep.TimeSeconds} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return rep, nil, nil, 0, fmt.Errorf("governor report has non-finite or non-positive totals: energy %v J, time %v s", rep.EnergyJoules, rep.TimeSeconds)
		}
	}
	return rep, ts.lats, g, wall, nil
}

// alwaysMax runs the same stream pinned at the maximum clock through a
// persistent telemetry stream — the energy baseline — and returns each
// item's Stream.Run time.
func alwaysMax(in governInputs) (energy, secs float64, runNS []float64, err error) {
	dev, err := sim.NewByName("GA100", in.seed)
	if err != nil {
		return 0, 0, nil, err
	}
	strm, err := dcgm.NewCollector(dev, dcgm.Config{Seed: in.seed + 1000}).Stream()
	if err != nil {
		return 0, 0, nil, err
	}
	if err := dev.SetClock(dev.Arch().MaxFreqMHz); err != nil {
		return 0, 0, nil, err
	}
	seq := in.stream()
	for i := 0; ; i++ {
		app, ok := seq.Next()
		if !ok {
			return energy, secs, runNS, nil
		}
		start := time.Now()
		run, err := strm.Run(app, i, nil)
		runNS = append(runNS, float64(time.Since(start)))
		if err != nil {
			return 0, 0, nil, err
		}
		energy += run.EnergyJoules
		secs += run.ExecTimeSec
	}
}

// governResult is what the measured governed runs give every caller.
type governResult struct {
	rep       governor.RunReport
	p50, p99  []float64 // phase-cycle latency per measured run, ns
	itemsPerS []float64
	last      *governor.Governor
}

// governMeasure repeats governed runs of the stream until budget is spent
// (at least twice) and checks that the deterministic report repeats. Each
// run's phase-cycle latencies are reduced to their median and p99 before
// the next run
// reuses the buffer, so the process's peak memory is the governor's, not
// the benchmark's bookkeeping.
func governMeasure(m *core.Models, sp governSpec, in governInputs, budget time.Duration) (governResult, error) {
	var res governResult
	buf := make([]float64, 0, in.items)
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		rep, lats, g, wall, err := governOnce(m, sp, in, buf, nil)
		if err != nil {
			return res, err
		}
		if n > 0 && rep != res.rep {
			return res, fmt.Errorf("governor report differs between two runs of one seed:\n%+v\n%+v", res.rep, rep)
		}
		cyc := cycles(lats, in.cycleLen())
		p99, err := tail(cyc, 99)
		if err != nil {
			return res, err
		}
		res.rep, res.last = rep, g
		res.p50 = append(res.p50, median(cyc))
		res.p99 = append(res.p99, p99)
		res.itemsPerS = append(res.itemsPerS, float64(in.items)/wall.Seconds())
	}
	return res, nil
}

// runGovern measures govern-cycle.
func runGovern(e *env) error {
	sp := e.spec.Govern
	in, err := newGovernInputs(sp, e.seed, sp.Items)
	if err != nil {
		return err
	}
	fmt.Printf("stream: %d items, phases %v, period %d\n", in.items, sp.Phases, in.period)
	var setups []float64
	var m *core.Models
	warm, err := newGovernInputs(sp, e.seed, sp.WarmupItems)
	if err != nil {
		return err
	}
	for r := 0; r < e.spec.SetupRepeats; r++ {
		start := time.Now()
		if m, err = buildModels(e.seed); err != nil {
			return err
		}
		if _, _, _, _, err := governOnce(m, sp, warm, make([]float64, 0, warm.items), nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.rep.setup(setups)

	res, err := governMeasure(m, sp, in, e.duration(1))
	if err != nil {
		return err
	}
	e.rep.phase("governed", 0, phaseStats{Sent: len(res.itemsPerS) * in.items, OK: len(res.itemsPerS) * in.items, WithinLimit: len(res.itemsPerS) * in.items})
	fmt.Printf("governed runs: %d × %d items, report %+v\n", len(res.itemsPerS), in.items, res.rep)
	p99 := median(res.p99) / 1e6
	fmt.Printf("phase-cycle p99 %.4g ms (median over %d runs); items/s per run %.4g\n", p99, len(res.p99), res.itemsPerS)
	if !e.trace {
		e.rep.set("latency_p50_ms", median(res.p50)/1e6, "ms")
		e.rep.set("throughput_per_s", median(res.itemsPerS), "1/s")
		rss, err := peakRSSKB(os.Getpid())
		if err != nil {
			return err
		}
		e.rep.set("peak_rss_mb", rss/1024, "MB")
		return nil
	}
	overhead, err := traceOverhead(median(res.itemsPerS), func() (float64, error) {
		_, _, _, wall, err := governOnce(m, sp, in, make([]float64, 0, in.items), e.tr)
		return float64(in.items) / wall.Seconds(), err
	})
	if err != nil {
		return err
	}
	e.rep.set("bench.trace_overhead_pct", overhead, "%")
	e.rep.set("bench.latency_p99_ms", p99, "ms")
	return governLayers(e, m, sp, in, res)
}

// governLayers reports the governor, trace and telemetry-stream layers
// from measured governed runs.
func governLayers(e *env, m *core.Models, sp governSpec, in governInputs, res governResult) error {
	r := e.rep
	energy, secs, runNS, err := alwaysMax(in)
	if err != nil {
		return err
	}
	rep := res.rep
	r.set("governor.energy_ratio", rep.EnergyJoules/energy, "ratio")
	r.set("governor.time_ratio", rep.TimeSeconds/secs, "ratio")
	r.set("governor.tuned_runs", float64(rep.TunedRuns), "count")
	r.set("governor.retunes", float64(rep.Retunes), "count")
	r.set("governor.re_pins", float64(rep.RePins), "count")
	r.set("governor.repin_ratio", ratio(float64(rep.RePins), float64(rep.Retunes)), "ratio")
	r.set("governor.phase_shifts", float64(rep.PhaseShifts), "count")
	r.set("governor.drifted_runs", float64(rep.DriftedRuns), "count")
	r.set("governor.step_us", median(res.p50)/float64(in.cycleLen())/1e3, "us")
	r.set("dcgm.stream_run_us", median(runNS)/1e3, "us")

	// Tune: one fresh governor tuning each phase workload in turn.
	dev, err := sim.NewByName("GA100", in.seed)
	if err != nil {
		return err
	}
	g, err := governor.New(dev, m, governConfig(sp, in.seed))
	if err != nil {
		return err
	}
	var tunes []float64
	for i := 0; i < 5; i++ {
		for _, kp := range in.phases {
			id, err := e.tr.timed("governor.tune", int64(i), -1, func() error {
				_, err := g.Tune(kp)
				return err
			})
			if err != nil {
				return err
			}
			tunes = append(tunes, float64(e.tr.spans[id].Dur))
		}
	}
	r.set("governor.tune_us", median(tunes)/1e3, "us")

	// TryRePin on the measured governor's memoized phases.
	phases := res.last.Phases()
	if len(phases) == 0 {
		return errors.New("governor memoized no phases")
	}
	const repins = 20000
	start := time.Now()
	for i := 0; i < repins; i++ {
		p := phases[i%len(phases)]
		if _, _, err := res.last.TryRePin(p[0], p[1]); err != nil {
			return err
		}
	}
	r.set("governor.repin_ns", float64(time.Since(start).Nanoseconds())/repins, "ns")

	// Online.PushSample over a profiling run's telemetry.
	run, err := dcgm.NewCollector(dev.Fork(in.seed), dcgm.Config{Seed: in.seed}).ProfileAtMax(in.phases[0])
	if err != nil {
		return err
	}
	det, err := trace.NewOnline(trace.OnlineOptions{})
	if err != nil {
		return err
	}
	const pushes = 200000
	start = time.Now()
	for i := 0; i < pushes; i++ {
		det.PushSample(run.Samples[i%len(run.Samples)])
	}
	r.set("trace.push_ns", float64(time.Since(start).Nanoseconds())/pushes, "ns")
	return nil
}
