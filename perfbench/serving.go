package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/router"
	"gpudvfs/internal/workloads"
)

// oracle holds the in-process reference answers for every key. The plan
// cache keys on quantized telemetry, not on names, so a select's answer
// depends on which keys its replica saw before: the oracle keeps one
// in-process stack per replica and feeds each the warm-up traffic its
// replica receives, in the same order. A key's first answer during
// warm-up and its steady answer after are the two correct bodies.
type oracle struct {
	refs   []*refStack // per replica
	owner  []int       // key → replica index on the router's ring
	first  [][]byte
	steady [][]byte
}

func newOracle(m *core.Models, path string, keys, urls []string) (*oracle, error) {
	ring, err := router.NewRing(urls, 0)
	if err != nil {
		return nil, err
	}
	o := &oracle{first: make([][]byte, len(keys)), steady: make([][]byte, len(keys))}
	for range urls {
		ref, err := newRefStack(m)
		if err != nil {
			o.close()
			return nil, err
		}
		o.refs = append(o.refs, ref)
	}
	for _, k := range keys {
		o.owner = append(o.owner, ring.Pick([]byte(k), nil))
	}
	call := func(k int, p string) ([]byte, error) {
		rec := httptest.NewRecorder()
		o.refs[o.owner[k]].handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(requestBody(keys[k]))))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s %s: status %d: %s", p, keys[k], rec.Code, rec.Body.Bytes())
		}
		return bytes.Clone(rec.Body.Bytes()), nil
	}
	// Two select passes, as the warm-up sends them; they also leave every
	// key's plan resident for the traced run's cache probe.
	for pass := 0; pass < 2; pass++ {
		for k := range keys {
			b, err := call(k, "/v1/select")
			if err != nil {
				o.close()
				return nil, err
			}
			if pass == 0 {
				o.first[k] = b
			} else {
				o.steady[k] = b
			}
		}
	}
	if path == "/v1/profile" {
		for k := range keys {
			b, err := call(k, path)
			if err != nil {
				o.close()
				return nil, err
			}
			o.first[k], o.steady[k] = b, b
		}
	}
	return o, nil
}

// check compares a live body against the reference answers for key.
func (o *oracle) check(key int, body []byte) error {
	if bytes.Equal(body, o.steady[key]) || bytes.Equal(body, o.first[key]) {
		return nil
	}
	return fmt.Errorf("body for key %d differs from the in-process handler:\n got %.300s\nwant %.300s", key, body, o.steady[key])
}

func (o *oracle) close() {
	for _, r := range o.refs {
		r.srv.Close()
	}
}

// firstErr keeps the first error reported from any goroutine.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// servingRun is one serving workload's state: the tier under test, its
// oracle and the request bodies.
type servingRun struct {
	e      *env
	sp     servingSpec
	keys   []string
	bodies [][]byte
	orc    *oracle
	t      *tier
	bad    firstErr
}

// newServingRun sets the tier up repeats times, tearing down all but the
// last, and returns the setup times.
func newServingRun(e *env, sp servingSpec, repeats int) (*servingRun, []float64, error) {
	s := &servingRun{e: e, sp: sp, keys: workloads.Names()}
	for _, k := range s.keys {
		s.bodies = append(s.bodies, requestBody(k))
	}
	var setups []float64
	for r := 0; r < repeats; r++ {
		took, err := s.setup(r)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if r < repeats-1 {
			e.logExits(s.t.teardown())
			s.t = nil
		}
	}
	return s, setups, nil
}

// setup writes the model set, starts the tier and warms it up: every key
// twice through the router in name order, then WarmupRequests seeded
// requests. Every answer is checked. The returned time runs from the start
// to the last warm-up answer, less the time spent building the oracle.
func (s *servingRun) setup(r int) (time.Duration, error) {
	start := time.Now()
	m, err := buildModels(s.e.seed)
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(s.e.workDir, fmt.Sprintf("models-%d", r))
	if err := m.Save(dir); err != nil {
		return 0, err
	}
	if s.t, err = startTier(s.e.binDir, dir, s.e.spec.Replicas, s.e.conns, s.e.timeout()); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if s.orc != nil {
		s.orc.close()
	}
	if s.orc, err = newOracle(m, s.sp.Path, s.keys, s.t.replicaURLs()); err != nil {
		return 0, err
	}
	oracleTime := time.Since(t0)
	url := s.t.routerURL() + s.sp.Path
	send := func(key int) error {
		code, body, err := post(s.t.client, url, s.bodies[key])
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", s.keys[key], code, body)
		}
		return s.orc.check(key, body)
	}
	for pass := 0; pass < 2; pass++ {
		for k := range s.keys {
			if err := send(k); err != nil {
				return 0, err
			}
		}
	}
	next, err := zipfKeys(rand.New(rand.NewSource(s.e.seed+7919)), s.e.spec.ZipfS, len(s.keys))
	if err != nil {
		return 0, err
	}
	for i := 0; i < s.sp.WarmupRequests; i++ {
		if err := send(next()); err != nil {
			return 0, err
		}
	}
	return time.Since(start) - oracleTime, nil
}

func (s *servingRun) close() {
	if s.t != nil {
		s.e.logExits(s.t.teardown())
		s.t = nil
	}
	if s.orc != nil {
		s.orc.close()
	}
}

// phase runs one open-loop phase through the router and checks every
// answer. spans, when non-nil, receives each request's send time and
// duration.
func (s *servingRun) phase(sched schedule, spans []span) phaseStats {
	url := s.t.routerURL() + s.sp.Path
	outs := openLoop(sched, s.e.conns, func(i, key int) (int, bool) {
		start := time.Now()
		code, body, err := post(s.t.client, url, s.bodies[key])
		if spans != nil {
			spans[i] = span{Req: int64(i), Start: start.UnixNano(), Dur: int64(time.Since(start))}
		}
		if err != nil || code != http.StatusOK {
			return code, false
		}
		if err := s.orc.check(key, body); err != nil {
			s.bad.set(err)
			return code, false
		}
		return code, true
	})
	return summarise(outs, s.sp.limit())
}

// runServing measures select-hot or profile-sweep.
func runServing(e *env, wl string) error {
	sp, ok := e.spec.Serving[wl]
	if !ok {
		return fmt.Errorf("no serving spec for %q", wl)
	}
	s, setups, err := newServingRun(e, sp, e.spec.SetupRepeats)
	if err != nil {
		return err
	}
	defer s.close()
	e.rep.setup(setups)

	rng := rand.New(rand.NewSource(e.seed))
	next, err := zipfKeys(rng, e.spec.ZipfS, len(s.keys))
	if err != nil {
		return err
	}
	if e.trace {
		return s.traced(rng, next, e.duration(sp.RefShare))
	}
	// The reference rate runs in three slices, before, halfway up and after
	// the ladder; latency_p50_ms is the median of the slices' medians, so a
	// burst of host stalls that hits one slice does not move it.
	var p50s, lats []float64
	reference := func(i int) error {
		st := s.phase(poissonSchedule(rng, sp.RefRPS, e.duration(sp.RefShare/3), next), nil)
		e.rep.phase(fmt.Sprintf("reference-%d", i), sp.RefRPS, st)
		if err := s.bad.get(); err != nil {
			return err
		}
		p50s = append(p50s, median(st.Lats))
		lats = append(lats, st.Lats...)
		return nil
	}
	half := len(sp.LadderRPS) / 2
	climb := e.duration(1-sp.RefShare) / 2
	var lower, upper float64
	if err := reference(0); err != nil {
		return err
	}
	if lower, err = s.ladder(rng, next, sp.LadderRPS[:half], climb); err != nil {
		return err
	}
	if err := reference(1); err != nil {
		return err
	}
	if upper, err = s.ladder(rng, next, sp.LadderRPS[half:], climb); err != nil {
		return err
	}
	if err := reference(2); err != nil {
		return err
	}
	if _, err := printP99("reference", lats); err != nil {
		return err
	}
	e.rep.set("latency_p50_ms", median(p50s), "ms")
	goodput := upper
	if goodput == 0 {
		goodput = lower
	}
	if goodput == 0 {
		return fmt.Errorf("no ladder rate sustained the goodput rule (lowest %g req/s)", sp.LadderRPS[0])
	}
	e.rep.set("throughput_per_s", goodput, "1/s")
	rss, err := s.t.peakRSSMB()
	if err != nil {
		return err
	}
	e.rep.set("peak_rss_mb", rss, "MB")
	return nil
}

// traced runs the reference rate for refDur, the first half untraced and
// the second half with a span per request — the difference in median
// latency is what recording spans costs — then reports the tier's
// counters over that window and decomposes TraceSample requests layer by
// layer.
func (s *servingRun) traced(rng *rand.Rand, next func() int, refDur time.Duration) error {
	e, sp := s.e, s.sp
	before, err := readTierStats(s.t)
	if err != nil {
		return err
	}
	plain := s.phase(poissonSchedule(rng, sp.RefRPS, refDur/2, next), nil)
	e.rep.phase("reference-untraced", sp.RefRPS, plain)
	sched := poissonSchedule(rng, sp.RefRPS, refDur/2, next)
	reqSpans := make([]span, len(sched.Due))
	st := s.phase(sched, reqSpans)
	e.rep.phase("reference-traced", sp.RefRPS, st)
	if err := s.bad.get(); err != nil {
		return err
	}
	for i, rs := range reqSpans {
		e.tr.record("bench.request", int64(i), -1, time.Unix(0, rs.Start), time.Duration(rs.Dur))
	}
	p99, err := printP99("reference-untraced", plain.Lats)
	if err != nil {
		return err
	}
	e.rep.set("bench.latency_p99_ms", p99, "ms")
	e.rep.set("bench.trace_overhead_pct", 100*(median(st.Lats)/median(plain.Lats)-1), "%")
	e.rep.set("bench.late_p99_ms", st.LateP99, "ms")
	e.rep.set("bench.late_max_ms", st.LateMax, "ms")
	after, err := readTierStats(s.t)
	if err != nil {
		return err
	}
	tierCounters(e.rep, before, after)
	sample := make([]int, sp.TraceSample)
	for i := range sample {
		sample[i] = next()
	}
	return servingLayers(e, s, sample)
}

// ladder offers each rung's rate in turn for StepSeconds, a failed rung
// once more, and returns the goodput: the rate of requests answered within
// the latency limit on the highest rung that sustains the goodput rule, 0
// if none does. It climbs past failing rungs until they end or the budget
// is spent, so a burst of host stalls below the knee cannot end the climb.
func (s *servingRun) ladder(rng *rand.Rand, next func() int, rungs []float64, budget time.Duration) (float64, error) {
	step := time.Duration(s.sp.StepSeconds * float64(time.Second))
	goodput := 0.0
	start := time.Now()
	for _, rate := range rungs {
		for try := 0; try < 2; try++ {
			if time.Since(start)+step > budget {
				fmt.Printf("ladder: measuring time spent before %g req/s\n", rate)
				return goodput, nil
			}
			st := s.phase(poissonSchedule(rng, rate, step, next), nil)
			if err := s.bad.get(); err != nil {
				return 0, err
			}
			s.e.rep.phase(fmt.Sprintf("ladder@%g", rate), rate, st)
			if st.sustained() {
				goodput = float64(st.WithinLimit) / step.Seconds()
				break
			}
		}
	}
	return goodput, nil
}

// tierStats are the counters the tier reports on its /v1/stats endpoints.
type tierStats struct {
	Router struct {
		Requests  uint64 `json:"requests"`
		NoReplica uint64 `json:"no_replica"`
		Replicas  []struct {
			Forwarded uint64 `json:"forwarded"`
			Errors    uint64 `json:"errors"`
		} `json:"replicas"`
	}
	Replicas []replicaCounters
}

type replicaCounters struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Batch struct {
		Batches uint64 `json:"batches"`
		Batched uint64 `json:"batched"`
	} `json:"batch"`
	HTTP struct {
		Shed   uint64 `json:"shed"`
		Failed uint64 `json:"failed"`
	} `json:"http"`
}

func readTierStats(t *tier) (tierStats, error) {
	var st tierStats
	if err := getJSON(t.client, t.routerURL()+"/v1/stats", &st.Router); err != nil {
		return st, err
	}
	for _, u := range t.replicaURLs() {
		var rc replicaCounters
		if err := getJSON(t.client, u+"/v1/stats", &rc); err != nil {
			return st, err
		}
		st.Replicas = append(st.Replicas, rc)
	}
	return st, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tierCounters reports the tier's own counters over a measured window.
func tierCounters(r *report, before, after tierStats) {
	var hits, misses, batches, batched, shed, failed, errs float64
	for i := range after.Replicas {
		a, b := after.Replicas[i], before.Replicas[i]
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		batches += float64(a.Batch.Batches - b.Batch.Batches)
		batched += float64(a.Batch.Batched - b.Batch.Batched)
		shed += float64(a.HTTP.Shed - b.HTTP.Shed)
		failed += float64(a.HTTP.Failed - b.HTTP.Failed)
	}
	lo, hi := -1.0, 0.0
	for i := range after.Router.Replicas {
		a, b := after.Router.Replicas[i], before.Router.Replicas[i]
		errs += float64(a.Errors - b.Errors)
		f := float64(a.Forwarded - b.Forwarded)
		if lo < 0 || f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	r.set("core.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("serve.batch_mean_size", ratio(batched, batches), "sweeps")
	r.set("serve.shed", shed, "count")
	r.set("serve.failed", failed, "count")
	r.set("router.errors", errs, "count")
	r.set("router.no_replica", float64(after.Router.NoReplica-before.Router.NoReplica), "count")
	r.set("router.replica_skew", ratio(hi, lo), "ratio")
}

// Mirrors of the replica's response shapes, for timing the encode step.
type selectJSON struct {
	Workload  string  `json:"workload"`
	Objective string  `json:"objective"`
	FreqMHz   float64 `json:"freq_mhz"`
	EnergyPct float64 `json:"energy_pct"`
	TimePct   float64 `json:"time_pct"`
	CacheHit  bool    `json:"cache_hit"`
}

type pointJSON struct {
	FreqMHz      float64 `json:"freq_mhz"`
	PowerWatts   float64 `json:"power_watts"`
	TimeSec      float64 `json:"time_sec"`
	EnergyJoules float64 `json:"energy_joules"`
}

type profileJSON struct {
	Workload    string      `json:"workload"`
	ExecTimeSec float64     `json:"exec_time_sec"`
	Clamped     int         `json:"clamped"`
	Profiles    []pointJSON `json:"profiles"`
}

// servingLayers decomposes sampled requests layer by layer. Each request
// is sent through the router (span "router"), straight to the replica
// that owns its key ("serve.http"), and through the replica's handler in
// process ("serve.handler"); then each step of the handler is called on
// its own: body decode, max-clock profiling run, plan-cache probe or
// batched predict with its direct sweep, and response encode. Steps off
// this workload's path are still timed, as root spans that no self time
// subtracts.
func servingLayers(e *env, s *servingRun, sample []int) error {
	t, tr := s.t, e.tr
	urls := t.replicaURLs()
	onSelect := s.sp.Path == "/v1/select"
	parentIf := func(on bool, id int) int {
		if on {
			return id
		}
		return -1
	}
	ctx := context.Background()
	dst := make([]objective.Profile, s.orc.refs[0].sw.GridSize())
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	samples := 0
	for j, key := range sample {
		req := int64(j)
		name, body := s.keys[key], s.bodies[key]
		owner := s.orc.owner[key]
		ref := s.orc.refs[owner]
		var code int
		var got []byte
		root, err := tr.timed("router", req, -1, func() (err error) {
			code, got, err = post(t.client, t.routerURL()+s.sp.Path, body)
			return err
		})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("routed %s: status %d", name, code)
		}
		if err == nil {
			err = s.orc.check(key, got)
		}
		if err != nil {
			return err
		}
		direct, err := tr.timed("serve.http", req, root, func() (err error) {
			code, got, err = post(t.client, urls[owner]+s.sp.Path, body)
			return err
		})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("direct %s: status %d", name, code)
		}
		if err == nil {
			err = s.orc.check(key, got)
		}
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, s.sp.Path, bytes.NewReader(body))
		handler, _ := tr.timed("serve.handler", req, direct, func() error {
			ref.handler.ServeHTTP(rec, hreq)
			return nil
		})
		if err := s.orc.check(key, rec.Body.Bytes()); err != nil {
			return fmt.Errorf("in-process handler: %w", err)
		}
		if _, err := tr.timed("serve.decode", req, handler, func() error {
			var v struct {
				Workload string `json:"workload"`
			}
			return json.NewDecoder(bytes.NewReader(body)).Decode(&v)
		}); err != nil {
			return err
		}
		var run dcgm.Run
		if _, err := tr.timed("dcgm.profile", req, handler, func() error {
			kp, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			seed := replicaSeed + nameSeed(name)
			run, err = dcgm.NewCollector(ref.dev.Fork(seed), dcgm.Config{Seed: seed}).ProfileAtMax(kp)
			return err
		}); err != nil {
			return err
		}
		samples += len(run.Samples)
		var sel core.Selection
		if _, err := tr.timed("core.cache_probe", req, parentIf(onSelect, handler), func() error {
			var hit bool
			var err error
			sel, hit, err = ref.srv.Cache().Select(run)
			if err == nil && !hit {
				err = fmt.Errorf("plan cache missed warmed key %s", name)
			}
			return err
		}); err != nil {
			return err
		}
		var profs []objective.Profile
		var clamps core.Clamps
		predict, err := tr.timed("serve.predict", req, parentIf(!onSelect, handler), func() (err error) {
			profs, clamps, err = ref.srv.Predict(ctx, run)
			return err
		})
		if err != nil {
			return err
		}
		if _, err := tr.timed("core.sweep", req, predict, func() error {
			_, err := ref.sw.PredictProfileInto(dst, run)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timed("objective.select", req, -1, func() error {
			_, err := objective.SelectOptimal(dst, objective.EDP{})
			return err
		}); err != nil {
			return err
		}
		var v any
		if onSelect {
			v = selectJSON{Workload: name, Objective: sel.Objective, FreqMHz: sel.FreqMHz,
				EnergyPct: sel.EnergyPct, TimePct: sel.TimePct, CacheHit: true}
		} else {
			pr := profileJSON{Workload: name, ExecTimeSec: run.ExecTimeSec, Clamped: clamps.Total(),
				Profiles: make([]pointJSON, len(profs))}
			for i, p := range profs {
				pr.Profiles[i] = pointJSON{FreqMHz: p.FreqMHz, PowerWatts: p.PowerWatts, TimeSec: p.TimeSec, EnergyJoules: p.Energy()}
			}
			v = pr
		}
		buf.Reset()
		if _, err := tr.timed("serve.encode", req, handler, func() error { return enc.Encode(v) }); err != nil {
			return err
		}
	}

	self, dur := selfTimes(tr.spans), durations(tr.spans)
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	r := e.rep
	r.set("router.hop_us", us(self["router"]), "us")
	r.set("serve.http_us", us(self["serve.http"]), "us")
	r.set("serve.handler_us", us(dur["serve.handler"]), "us")
	r.set("serve.decode_us", us(self["serve.decode"]), "us")
	r.set("serve.encode_us", us(self["serve.encode"]), "us")
	r.set("serve.batch_wait_us", us(self["serve.predict"]), "us")
	r.set("dcgm.profile_us", us(self["dcgm.profile"]), "us")
	r.set("dcgm.samples_per_profile", float64(samples)/float64(len(sample)), "samples")
	r.set("core.cache_probe_ns", median(self["core.cache_probe"]), "ns")
	sweepUS := us(self["core.sweep"])
	r.set("core.sweep_us", sweepUS, "us")
	r.set("objective.select_us", us(self["objective.select"]), "us")
	ref := s.orc.refs[0]
	flops, nbytes := sweepCost(ref.sw.GridSize(), ref.models)
	r.set("nn.flops_per_sweep", flops, "flop")
	r.set("nn.bytes_per_sweep", nbytes, "B")
	r.set("nn.gflops", flops/(sweepUS*1e3), "GFLOP/s")

	pick := make([][]byte, len(s.keys))
	for i, k := range s.keys {
		pick[i] = []byte(k)
	}
	const picks = 200000
	ring, err := router.NewRing(urls, 0)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < picks; i++ {
		ring.Pick(pick[i%len(pick)], nil)
	}
	r.set("router.pick_ns", float64(time.Since(start).Nanoseconds())/picks, "ns")

	var renders []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		resp, err := t.client.Get(urls[0] + "/metrics")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		renders = append(renders, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.set("obs.metrics_render_us", median(renders), "us")
	return nil
}

// durations groups span durations (ns) by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Dur))
	}
	return out
}
