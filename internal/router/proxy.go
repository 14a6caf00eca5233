package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpudvfs/internal/obs"
)

// Config assembles a Proxy.
type Config struct {
	// Replicas are the dvfs-served base URLs the router fronts
	// (e.g. http://127.0.0.1:8081). At least one is required; trailing
	// slashes are stripped.
	Replicas []string
	// Vnodes is each replica's virtual-node count on the hash ring.
	// 0 selects DefaultVnodes.
	Vnodes int
	// HealthInterval is the cadence of the background liveness probe
	// (GET /v1/stats per replica). 0 means 2s; negative disables the
	// prober — replicas then only transition down on proxy errors, and
	// never recover.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe. 0 means 1s.
	HealthTimeout time.Duration
	// MaxBody bounds an accepted request body. 0 means 64 KiB (the same
	// bound the replicas enforce).
	MaxBody int64
	// Metrics receives the router's series; nil creates a private
	// registry (reachable via Metrics()).
	Metrics *obs.Registry
	// Logger, when non-nil, logs sampled proxied requests.
	Logger *obs.Logger
}

// replica is one backend: its long-lived keep-alive client, liveness bit,
// and counters.
type replica struct {
	base      string // no trailing slash
	client    *http.Client
	up        atomic.Bool
	forwarded *obs.Counter
	errors    *obs.Counter
}

// proxyWS is one in-flight request's pooled scratch: the body buffer the
// request is slurped into (grow-only, reused across requests).
type proxyWS struct {
	body []byte
}

// Proxy is the consistent-hash front for a set of dvfs-served replicas.
// Create with New, expose via Handler, stop with Close.
type Proxy struct {
	ring    *Ring
	reps    []*replica
	upFn    func(int) bool // stored once so Pick calls never allocate a closure
	maxBody int64
	start   time.Time

	bufPool  sync.Pool // *proxyWS
	registry *obs.Registry
	logger   *obs.Logger

	requests    *obs.Counter
	noReplica   *obs.Counter
	selectHist  *obs.Histogram
	profileHist *obs.Histogram

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds the proxy, starts its health prober, and marks every replica
// up (optimistically — the first failed request or probe corrects it).
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	bases := make([]string, len(cfg.Replicas))
	for i, raw := range cfg.Replicas {
		raw = strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: replica %q is not an absolute URL", cfg.Replicas[i])
		}
		bases[i] = raw
	}
	ring, err := NewRing(bases, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = 1 << 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Proxy{
		ring:     ring,
		reps:     make([]*replica, len(bases)),
		maxBody:  cfg.MaxBody,
		start:    time.Now(),
		registry: reg,
		logger:   cfg.Logger,
		quit:     make(chan struct{}),
	}
	p.bufPool.New = func() any { return &proxyWS{body: make([]byte, 0, 512)} }
	p.requests = reg.Counter("dvfs_router_requests_total", "Requests accepted by the router.", "")
	p.noReplica = reg.Counter("dvfs_router_no_replica_total", "Requests failed because no replica was up.", "")
	p.selectHist = reg.Histogram("dvfs_router_proxy_seconds", "Proxied request latency.", obs.Labels("route", "select"), nil)
	p.profileHist = reg.Histogram("dvfs_router_proxy_seconds", "Proxied request latency.", obs.Labels("route", "profile"), nil)
	for i, base := range bases {
		rep := &replica{
			base: base,
			client: &http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxIdleConns:        64,
					MaxIdleConnsPerHost: 64,
					IdleConnTimeout:     90 * time.Second,
				},
			},
			forwarded: reg.Counter("dvfs_router_replica_forwarded_total", "Requests forwarded per replica.", obs.Labels("replica", base)),
			errors:    reg.Counter("dvfs_router_replica_errors_total", "Transport errors per replica.", obs.Labels("replica", base)),
		}
		rep.up.Store(true)
		reg.Gauge("dvfs_router_replica_up", "Replica liveness (1 up, 0 down).", obs.Labels("replica", base), func() float64 {
			if rep.up.Load() {
				return 1
			}
			return 0
		})
		p.reps[i] = rep
	}
	p.upFn = func(i int) bool { return p.reps[i].up.Load() }
	if cfg.HealthInterval > 0 {
		p.wg.Add(1)
		go p.healthLoop(cfg.HealthInterval, cfg.HealthTimeout)
	}
	return p, nil
}

// Close stops the health prober and tears down idle backend connections.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
	for _, rep := range p.reps {
		if t, ok := rep.client.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
}

// Metrics returns the registry the router's series live in.
func (p *Proxy) Metrics() *obs.Registry { return p.registry }

// Ring exposes the hash ring (tests, stats).
func (p *Proxy) Ring() *Ring { return p.ring }

// healthLoop probes every replica at the configured cadence. A replica is
// up when its /v1/stats answers 200 within the timeout; the prober is the
// only path that transitions a replica back up after a failure marked it
// down.
func (p *Proxy) healthLoop(interval, timeout time.Duration) {
	defer p.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-ticker.C:
			for _, rep := range p.reps {
				rep.up.Store(p.probe(rep, timeout))
			}
		}
	}
}

// probe is one liveness check.
func (p *Proxy) probe(rep *replica, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/v1/stats", nil)
	if err != nil {
		return false
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// workloadKey extracts the value of the "workload" field from a JSON
// request body without allocating: the returned slice aliases body. It
// returns nil when the field is absent, malformed, or contains escape
// sequences (the rare slow path — the caller then routes by the whole
// body, which is still deterministic, just not name-canonical).
func workloadKey(body []byte) []byte {
	const needle = `"workload"`
	i := bytes.Index(body, []byte(needle))
	if i < 0 {
		return nil
	}
	rest := body[i+len(needle):]
	j := 0
	for j < len(rest) && (rest[j] == ' ' || rest[j] == '\t' || rest[j] == '\n' || rest[j] == '\r') {
		j++
	}
	if j >= len(rest) || rest[j] != ':' {
		return nil
	}
	j++
	for j < len(rest) && (rest[j] == ' ' || rest[j] == '\t' || rest[j] == '\n' || rest[j] == '\r') {
		j++
	}
	if j >= len(rest) || rest[j] != '"' {
		return nil
	}
	j++
	start := j
	for j < len(rest) {
		switch rest[j] {
		case '\\':
			return nil
		case '"':
			return rest[start:j]
		}
		j++
	}
	return nil
}

// readAll slurps r into dst (reusing its capacity) — io.ReadAll without
// the fresh buffer per call.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Handler returns the router's HTTP surface:
//
//	POST /v1/select   → proxied to the key-owning replica
//	POST /v1/profile  → proxied to the key-owning replica
//	GET  /v1/stats    → router + per-replica health/counters (JSON)
//	GET  /metrics     → Prometheus text exposition
//	GET  /healthz     → 200 once at least one replica is up
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", func(w http.ResponseWriter, r *http.Request) { p.proxy(w, r, p.selectHist) })
	mux.HandleFunc("POST /v1/profile", func(w http.ResponseWriter, r *http.Request) { p.proxy(w, r, p.profileHist) })
	mux.HandleFunc("GET /v1/stats", p.handleStats)
	mux.Handle("GET /metrics", p.registry.Handler())
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	return mux
}

// proxy forwards one request to the key-owning replica, failing over
// clockwise around the ring when a replica's transport errors. Replica
// HTTP errors (4xx/5xx/429) are passed through verbatim — the replica is
// alive and its answer, including shedding backpressure, is canonical.
func (p *Proxy) proxy(w http.ResponseWriter, r *http.Request, hist *obs.Histogram) {
	t0 := time.Now()
	p.requests.Inc()
	ws := p.bufPool.Get().(*proxyWS)
	defer p.bufPool.Put(ws)
	body, err := readAll(ws.body[:0], http.MaxBytesReader(w, r.Body, p.maxBody))
	ws.body = body // keep growth for the next request
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "reading request body: "+err.Error())
		p.observe(hist, r, "", status, false, t0)
		return
	}
	key := workloadKey(body)
	if key == nil {
		// No extractable name: route by the whole body so the placement
		// stays deterministic, and let the owning replica produce the
		// canonical error (or handle the exotic body).
		key = body
	}

	var lastErr error
	for attempt := 0; attempt < len(p.reps); attempt++ {
		idx := p.ring.Pick(key, p.upFn)
		if idx < 0 {
			break
		}
		rep := p.reps[idx]
		req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.base+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			lastErr = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rep.client.Do(req)
		if err != nil {
			// Transport-level failure: mark the replica down (the prober
			// restores it when it answers again) and re-Pick — with the
			// owner excluded, Pick lands on the next ring node, so every
			// router instance fails the same key over to the same
			// replica.
			rep.errors.Inc()
			rep.up.Store(false)
			lastErr = err
			continue
		}
		rep.forwarded.Inc()
		copyHeader(w, resp, "Content-Type")
		copyHeader(w, resp, "Retry-After")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // nothing to do about a dead client
		resp.Body.Close()
		hit := resp.Header.Get(obs.CacheHitHeader) == "true"
		p.observe(hist, r, bytesToLogString(p.logger, key), resp.StatusCode, hit, t0)
		return
	}
	p.noReplica.Inc()
	msg := "no replica available"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	writeError(w, http.StatusServiceUnavailable, msg)
	p.observe(hist, r, "", http.StatusServiceUnavailable, false, t0)
}

// observe records one proxied request on the histogram and the sampled
// request log.
func (p *Proxy) observe(hist *obs.Histogram, r *http.Request, workload string, status int, hit bool, t0 time.Time) {
	dur := time.Since(t0)
	hist.Observe(dur.Seconds())
	p.logger.Request(r.Method, r.URL.Path, workload, status, dur, hit)
}

// bytesToLogString materializes the workload key for the request log —
// only when a logger is attached at all; the nil-logger fast path stays
// allocation-free.
func bytesToLogString(l *obs.Logger, key []byte) string {
	if l == nil {
		return ""
	}
	return string(key)
}

func copyHeader(w http.ResponseWriter, resp *http.Response, name string) {
	if v := resp.Header.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	w.Write(b) //nolint:errcheck // nothing to do about a dead client
}

// statsResponse is the router's GET /v1/stats shape.
type statsResponse struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Requests      uint64         `json:"requests"`
	NoReplica     uint64         `json:"no_replica"`
	Replicas      []replicaStats `json:"replicas"`
}

type replicaStats struct {
	URL       string `json:"url"`
	Up        bool   `json:"up"`
	Forwarded uint64 `json:"forwarded"`
	Errors    uint64 `json:"errors"`
}

func (p *Proxy) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		UptimeSeconds: time.Since(p.start).Seconds(),
		Requests:      p.requests.Value(),
		NoReplica:     p.noReplica.Value(),
		Replicas:      make([]replicaStats, len(p.reps)),
	}
	for i, rep := range p.reps {
		resp.Replicas[i] = replicaStats{
			URL:       rep.base,
			Up:        rep.up.Load(),
			Forwarded: rep.forwarded.Value(),
			Errors:    rep.errors.Value(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Write(b) //nolint:errcheck // nothing to do about a dead client
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for _, rep := range p.reps {
		if rep.up.Load() {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n") //nolint:errcheck
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "no replica up")
}
