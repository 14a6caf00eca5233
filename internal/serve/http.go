package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/workloads"
)

// HTTPConfig wires a Server to a device for the JSON API.
type HTTPConfig struct {
	// Device profiles workloads at the maximum clock for /v1/select and
	// /v1/profile. Any backend works: sim synthesizes telemetry, replay
	// serves a recorded trace.
	Device backend.Device
	// ProfileSeed offsets the per-request profiling noise seed. The
	// effective seed is ProfileSeed plus a stable hash of the workload
	// name, so repeat queries for one workload reproduce identical
	// telemetry (and therefore hit the plan cache) while distinct
	// workloads stay decorrelated.
	ProfileSeed int64
	// Metrics receives the daemon's series; the registry (a private one
	// when nil) is served at GET /metrics.
	Metrics *obs.Registry
	// Logger, when non-nil, emits one sampled logfmt line per request.
	Logger *obs.Logger
}

// httpAPI is the handler state behind NewHandler.
type httpAPI struct {
	srv    *Server
	dev    backend.Device
	seed   int64
	logger *obs.Logger
	start  time.Time

	selectHist  *obs.Histogram
	profileHist *obs.Histogram

	selects  atomic.Uint64
	profiles atomic.Uint64
	shed     atomic.Uint64
	failed   atomic.Uint64
}

// NewHandler returns the dvfs-served HTTP/JSON API over a Server:
//
//	POST /v1/select  {"workload": "LAMMPS"}  → frequency selection
//	POST /v1/profile {"workload": "LAMMPS"}  → predicted DVFS profile table
//	GET  /v1/stats                           → cache/HTTP counters
//	GET  /metrics                            → Prometheus text exposition
//
// Overload from the bounded admission gate maps to 429 with a Retry-After
// hint; the daemon never queues without bound.
func NewHandler(s *Server, cfg HTTPConfig) (http.Handler, error) {
	if s == nil {
		return nil, errors.New("serve: handler needs a server")
	}
	if cfg.Device == nil {
		return nil, errors.New("serve: handler needs a device")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a := &httpAPI{srv: s, dev: cfg.Device, seed: cfg.ProfileSeed, logger: cfg.Logger, start: time.Now()}
	a.selectHist = reg.Histogram("dvfs_served_request_seconds", "Request latency by route.", obs.Labels("route", "select"), nil)
	a.profileHist = reg.Histogram("dvfs_served_request_seconds", "Request latency by route.", obs.Labels("route", "profile"), nil)
	a.registerMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", a.instrument(a.selectHist, a.handleSelect))
	mux.HandleFunc("POST /v1/profile", a.instrument(a.profileHist, a.handleProfile))
	mux.HandleFunc("GET /v1/stats", a.handleStats)
	mux.Handle("GET /metrics", reg.Handler())
	return mux, nil
}

// registerMetrics exports the serving counters the stack already keeps —
// callback-backed, so nothing on the request path is double-counted or
// mirrored. Per-shard cache series expose key-space skew across the lock
// stripes; the admitted-sweeps gauge is the admission gate's live load.
func (a *httpAPI) registerMetrics(reg *obs.Registry) {
	cache := a.srv.Cache()
	reg.CounterFunc("dvfs_served_selects_total", "Completed /v1/select requests.", "",
		func() float64 { return float64(a.selects.Load()) })
	reg.CounterFunc("dvfs_served_profiles_total", "Completed /v1/profile requests.", "",
		func() float64 { return float64(a.profiles.Load()) })
	reg.CounterFunc("dvfs_served_shed_total", "Requests shed with 429 by the sweep admission gate.", "",
		func() float64 { return float64(a.shed.Load()) })
	reg.CounterFunc("dvfs_served_failed_total", "Requests failed with 4xx/5xx (excluding sheds).", "",
		func() float64 { return float64(a.failed.Load()) })
	reg.CounterFunc("dvfs_served_cache_hits_total", "Plan-cache hits.", "",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("dvfs_served_cache_misses_total", "Plan-cache misses.", "",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("dvfs_served_cache_evictions_total", "Plan-cache LRU evictions.", "",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.Gauge("dvfs_served_cache_entries", "Memoized selections resident.", "",
		func() float64 { return float64(cache.Len()) })
	reg.Gauge("dvfs_served_sweeps_admitted", "Sweeps admitted by the gate, running or waiting for a run slot.", "",
		func() float64 { return float64(a.srv.Admitted()) })
	reg.Gauge("dvfs_served_uptime_seconds", "Seconds since the handler was assembled.", "",
		func() float64 { return time.Since(a.start).Seconds() })
	for i := 0; i < cache.Shards(); i++ {
		i := i
		labels := obs.Labels("shard", strconv.Itoa(i))
		reg.CounterFunc("dvfs_served_cache_shard_hits_total", "Plan-cache hits per shard.", labels,
			func() float64 { return float64(cache.ShardStats()[i].Hits) })
		reg.CounterFunc("dvfs_served_cache_shard_misses_total", "Plan-cache misses per shard.", labels,
			func() float64 { return float64(cache.ShardStats()[i].Misses) })
	}
}

// statusWriter captures the response status plus the handler's workload /
// cache-hit annotations for the latency histogram and the request log.
// Instances are pooled: instrumentation must not add a per-request heap
// allocation of its own.
type statusWriter struct {
	http.ResponseWriter
	status   int
	workload string
	hit      bool
}

var statusPool = sync.Pool{New: func() any { return &statusWriter{} }}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// annotate attaches the decoded workload name and cache-hit flag to the
// in-flight request's log line. Handlers receive the pooled statusWriter
// as their ResponseWriter; outside instrumented routes this is a no-op.
func annotate(w http.ResponseWriter, workload string, hit bool) {
	if sw, ok := w.(*statusWriter); ok {
		sw.workload = workload
		sw.hit = hit
	}
}

// instrument wraps a route handler with latency observation and sampled
// request logging. The observation itself (histogram add, logger skip
// path) is allocation-free; the wrapper rides the pool.
func (a *httpAPI) instrument(hist *obs.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := statusPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.workload, sw.hit = w, http.StatusOK, "", false
		h(sw, r)
		dur := time.Since(t0)
		hist.Observe(dur.Seconds())
		a.logger.Request(r.Method, r.URL.Path, sw.workload, sw.status, dur, sw.hit)
		sw.ResponseWriter = nil
		statusPool.Put(sw)
	}
}

// apiError is every error body's shape.
type apiError struct {
	Error string `json:"error"`
}

type selectRequest struct {
	Workload string `json:"workload"`
}

type selectResponse struct {
	Workload  string  `json:"workload"`
	Objective string  `json:"objective"`
	FreqMHz   float64 `json:"freq_mhz"`
	// MemFreqMHz is present only when the server sweeps the 2-D
	// (core × memory) grid; core-only servers emit byte-identical
	// responses to the pre-grid API.
	MemFreqMHz float64 `json:"mem_freq_mhz,omitempty"`
	EnergyPct  float64 `json:"energy_pct"`
	TimePct    float64 `json:"time_pct"`
	CacheHit   bool    `json:"cache_hit"`
}

type profilePoint struct {
	FreqMHz      float64 `json:"freq_mhz"`
	MemFreqMHz   float64 `json:"mem_freq_mhz,omitempty"`
	PowerWatts   float64 `json:"power_watts"`
	TimeSec      float64 `json:"time_sec"`
	EnergyJoules float64 `json:"energy_joules"`
}

type profileResponse struct {
	Workload    string  `json:"workload"`
	ExecTimeSec float64 `json:"exec_time_sec"`
	Clamped     int     `json:"clamped"`
	// ClampedMem is the memory-axis share of Clamped; absent on core-only
	// servers, whose clamps are all core-axis by construction.
	ClampedMem int            `json:"clamped_mem,omitempty"`
	Profiles   []profilePoint `json:"profiles"`
}

// shardStatsJSON is one lock stripe's counters in /v1/stats.
type shardStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Cache         struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Entries   int    `json:"entries"`
		Shards    int    `json:"shards"`
	} `json:"cache"`
	HTTP struct {
		Selects  uint64 `json:"selects"`
		Profiles uint64 `json:"profiles"`
		Shed     uint64 `json:"shed"`
		Failed   uint64 `json:"failed"`
	} `json:"http"`
	// Shards is the per-stripe cache counter breakdown, in shard order —
	// the same numbers /metrics exposes as labeled series.
	Shards []shardStatsJSON `json:"shards"`
}

// jsonEnc is a pooled buffer+encoder pair: writeJSON reuses both across
// responses instead of constructing a fresh encoder (and growing a fresh
// buffer) per call.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func writeJSON(w http.ResponseWriter, code int, v any) {
	e := jsonPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Unreachable for the fixed response types; keep the pool clean
		// and fail loudly rather than emit a torn body.
		jsonPool.Put(e)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(e.buf.Bytes()) //nolint:errcheck // nothing to do about a dead client
	jsonPool.Put(e)
}

// writeErr maps serving errors to status codes: shedding is 429 (the
// load-generator acceptance contract), closed is 503, a profiling run the
// sweep rejects (core.ErrInvalidRun, e.g. a NaN sample in a replayed
// trace) is 422, everything else 500. Both failures count as failed.
func (a *httpAPI) writeErr(w http.ResponseWriter, code int, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		a.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	default:
		a.failed.Add(1)
		if errors.Is(err, core.ErrInvalidRun) {
			code = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// nameSeed folds a workload name into a stable non-negative seed offset.
func nameSeed(name string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h &^ (1 << 63))
}

// resolve turns a request's workload name into something the backend can
// run: a registered kernel profile when the name is known, a bare Named
// handle on trace-serving backends (which look workloads up by name).
func (a *httpAPI) resolve(name string) (backend.Workload, error) {
	if name == "" {
		return nil, errors.New("missing workload name")
	}
	if kp, err := workloads.ByName(name); err == nil {
		return kp, nil
	}
	if a.dev.Kind() != "sim" {
		return backend.Named(name), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// profileAtMax runs the online phase's single max-clock profiling run for
// the named workload on a per-request fork of the device, deterministically
// seeded per workload name.
func (a *httpAPI) profileAtMax(name string) (dcgm.Run, error) {
	w, err := a.resolve(name)
	if err != nil {
		return dcgm.Run{}, err
	}
	seed := a.seed + nameSeed(name)
	coll := dcgm.NewCollector(a.dev.Fork(seed), dcgm.Config{Seed: seed})
	return coll.ProfileAtMax(w)
}

func decodeWorkload(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req selectRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return "", false
	}
	return req.Workload, true
}

func (a *httpAPI) handleSelect(w http.ResponseWriter, r *http.Request) {
	name, ok := decodeWorkload(w, r)
	if !ok {
		return
	}
	annotate(w, name, false)
	run, err := a.profileAtMax(name)
	if err != nil {
		a.failed.Add(1)
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	sel, hit, err := a.srv.Select(r.Context(), run)
	if err != nil {
		a.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	annotate(w, name, hit)
	w.Header().Set(obs.CacheHitHeader, strconv.FormatBool(hit))
	a.selects.Add(1)
	writeJSON(w, http.StatusOK, selectResponse{
		Workload:   name,
		Objective:  sel.Objective,
		FreqMHz:    sel.FreqMHz,
		MemFreqMHz: sel.MemFreqMHz,
		EnergyPct:  sel.EnergyPct,
		TimePct:    sel.TimePct,
		CacheHit:   hit,
	})
}

func (a *httpAPI) handleProfile(w http.ResponseWriter, r *http.Request) {
	name, ok := decodeWorkload(w, r)
	if !ok {
		return
	}
	annotate(w, name, false)
	run, err := a.profileAtMax(name)
	if err != nil {
		a.failed.Add(1)
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	profiles, clamped, err := a.srv.Predict(r.Context(), run)
	if err != nil {
		a.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := profileResponse{
		Workload:    name,
		ExecTimeSec: run.ExecTimeSec,
		Clamped:     clamped.Total(),
		ClampedMem:  clamped.Mem,
	}
	resp.Profiles = make([]profilePoint, len(profiles))
	for i, p := range profiles {
		resp.Profiles[i] = profilePoint{
			FreqMHz:      p.FreqMHz,
			MemFreqMHz:   p.MemFreqMHz,
			PowerWatts:   p.PowerWatts,
			TimeSec:      p.TimeSec,
			EnergyJoules: p.Energy(),
		}
	}
	a.profiles.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (a *httpAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	st := a.srv.Stats()
	var resp statsResponse
	resp.UptimeSeconds = time.Since(a.start).Seconds()
	per := a.srv.Cache().ShardStats()
	resp.Shards = make([]shardStatsJSON, len(per))
	for i, ss := range per {
		resp.Shards[i] = shardStatsJSON{Hits: ss.Hits, Misses: ss.Misses, Evictions: ss.Evictions}
	}
	resp.Cache.Hits = st.Cache.Hits
	resp.Cache.Misses = st.Cache.Misses
	resp.Cache.Evictions = st.Cache.Evictions
	resp.Cache.Entries = st.CacheLen
	resp.Cache.Shards = a.srv.Cache().Shards()
	resp.HTTP.Selects = a.selects.Load()
	resp.HTTP.Profiles = a.profiles.Load()
	resp.HTTP.Shed = a.shed.Load()
	resp.HTTP.Failed = a.failed.Load()
	writeJSON(w, http.StatusOK, resp)
}
