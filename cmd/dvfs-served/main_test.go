package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/open"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/daemon"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/stats"
)

// saveTestModels writes paper-shaped random-weight models to a tempdir —
// the daemon's contracts (routing, caching, shedding) hold for any weights.
func saveTestModels(t *testing.T) string {
	t.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
	dir := filepath.Join(t.TempDir(), "models")
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func baseConfig(modelsDir string) config {
	return config{
		modelsDir: modelsDir,
		objective: "edp",
		threshold: -1,
		device:    open.Config{Backend: "sim", Arch: "GA100", Seed: 3},
		seed:      11,
	}
}

func TestBuildHandlerValidation(t *testing.T) {
	models := saveTestModels(t)

	missing := baseConfig(filepath.Join(t.TempDir(), "nope"))
	if _, _, err := buildHandler(missing); err == nil {
		t.Fatal("missing models dir accepted")
	}

	simTrace := baseConfig(models)
	simTrace.device.Trace = "trace.csv"
	if _, _, err := buildHandler(simTrace); err == nil {
		t.Fatal("sim backend with -trace accepted")
	}

	badObj := baseConfig(models)
	badObj.objective = "speed"
	if _, _, err := buildHandler(badObj); err == nil {
		t.Fatal("unknown objective accepted")
	}

	badQueue := baseConfig(models)
	badQueue.queue = -1
	if _, _, err := buildHandler(badQueue); err == nil {
		t.Fatal("negative queue bound accepted")
	}

	badShards := baseConfig(models)
	badShards.shards = -4
	if _, _, err := buildHandler(badShards); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestServedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	cfg := baseConfig(saveTestModels(t))
	handler, srv, err := buildHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(handler)
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	resp, body := post(`{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d, body %v", resp.StatusCode, body)
	}
	freq, ok := body["freq_mhz"].(float64)
	if !ok || freq <= 0 {
		t.Fatalf("select body %v", body)
	}
	clocks := sim.GA100().Spec().DesignClocks()
	found := false
	for _, f := range clocks {
		if f == freq {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("selected %v MHz is not a design clock", freq)
	}
	if hit, _ := body["cache_hit"].(bool); hit {
		t.Fatal("first request reported a cache hit")
	}

	resp, body = post(`{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat select: status %d", resp.StatusCode)
	}
	if hit, _ := body["cache_hit"].(bool); !hit {
		t.Fatal("repeat request missed the cache")
	}
	if body["freq_mhz"].(float64) != freq {
		t.Fatalf("repeat selection changed: %v → %v", freq, body["freq_mhz"])
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDrainGateRefusesLateRequests pins the drain contract on the real
// handler: before shutdown begins requests are served; after the gate
// flips, new requests get 503 with Connection: close.
func TestDrainGateRefusesLateRequests(t *testing.T) {
	cfg := baseConfig(saveTestModels(t))
	handler, srv, err := buildHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	drain := &daemon.Drain{Handler: handler, Refusal: "server is shutting down"}
	ts := httptest.NewServer(drain)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain stats: status %d", resp.StatusCode)
	}

	drain.Begin()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining stats: status %d, want 503", resp.StatusCode)
	}
	if !resp.Close {
		t.Fatal("draining response should ask the client to close the connection")
	}
}

// TestRunShutdownSIGTERMMidTraffic exercises the full daemon lifecycle:
// run() on a real socket, SIGTERM while a slow profiling request is in
// flight (a replay trace paced by TimeCompression makes the profile take
// ~0.4s of wall clock), then assert the in-flight request drains with 200,
// a pipelined late request is refused, run() exits nil, and the listener
// is gone.
func TestRunShutdownSIGTERMMidTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	rec := []backend.Run{{
		Workload:      "slowjob",
		Arch:          "GA100",
		FreqMHz:       1410,
		ExecTimeSec:   2,
		AvgPowerWatts: 250,
		Samples: []backend.Sample{{
			FP32Active:    0.4,
			DRAMActive:    0.2,
			SMAppClockMHz: 1410,
			PowerUsage:    250,
		}},
	}}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := backend.WriteRunsFile(trace, rec); err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(saveTestModels(t))
	cfg.device = open.Config{Backend: "replay", Trace: trace, TimeCompression: 5}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, "127.0.0.1:0", cfg, ready) }()
	addr := (<-ready).String()

	// One raw connection, two pipelined requests: the slow select is in
	// flight when the signal lands; the stats request behind it arrives
	// after draining has begun.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"workload": "slowjob"}`
	pipelined := fmt.Sprintf("POST /v1/select HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body) +
		"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"
	if _, err := conn.Write([]byte(pipelined)); err != nil {
		t.Fatal(err)
	}

	time.Sleep(100 * time.Millisecond) // select is now mid-profile
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request did not drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight select: status %d, want 200", resp.StatusCode)
	}

	// The late request must not be served: either the drain gate answers
	// 503, or shutdown closed the connection before it was read. Both
	// refuse the request; neither returns 200.
	if resp, err := http.ReadResponse(br, nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("late request was served: status %d, want 503", resp.StatusCode)
		}
	}

	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v after graceful shutdown", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRunShutdownOnClose covers the programmatic path: cancelling run's
// context (what closing the daemon embeds to) drains and returns nil.
func TestRunShutdownOnClose(t *testing.T) {
	cfg := baseConfig(saveTestModels(t))
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, "127.0.0.1:0", cfg, ready) }()
	addr := (<-ready).String()

	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v after close", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after close")
	}
}

// TestRunShutdownWithUnusedConn: a client holding an accepted connection
// that never sends a request must not stall the drain — net/http's 5 s
// grace for such connections would otherwise tie with the 5 s drain
// deadline and make run fail with "context deadline exceeded".
func TestRunShutdownWithUnusedConn(t *testing.T) {
	cfg := baseConfig(saveTestModels(t))
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, "127.0.0.1:0", cfg, ready) }()
	addr := (<-ready).String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the server accept it (StateNew) before shutdown begins.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v with an unused connection open", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("drain took %v with an unused connection open", took)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("run did not return well inside the 5 s drain deadline")
	}
}

// TestRunSnapshotWarmStart covers the daemon-level snapshot lifecycle:
// the first life serves a cold select and persists the plan cache on
// shutdown; the second life warm-starts from the file and answers its
// very first request from the cache; a third boot under a drifted cache
// configuration is refused with a clear error.
func TestRunSnapshotWarmStart(t *testing.T) {
	cfg := baseConfig(saveTestModels(t))
	cfg.snapshot = filepath.Join(t.TempDir(), "plans.snap")

	boot := func(c config) (string, context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan net.Addr, 1)
		runErr := make(chan error, 1)
		go func() { runErr <- run(ctx, "127.0.0.1:0", c, ready) }()
		return (<-ready).String(), cancel, runErr
	}
	selectOnce := func(addr string) (hit bool) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/select", "application/json", strings.NewReader(`{"workload": "DGEMM"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select: status %d", resp.StatusCode)
		}
		var body struct {
			CacheHit bool `json:"cache_hit"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.CacheHit
	}

	addr, cancel, runErr := boot(cfg)
	if selectOnce(addr) {
		t.Fatal("first life's first select was a hit")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("first life: %v", err)
	}
	if _, err := os.Stat(cfg.snapshot); err != nil {
		t.Fatalf("no snapshot written on shutdown: %v", err)
	}

	addr, cancel, runErr = boot(cfg)
	if !selectOnce(addr) {
		t.Fatal("warm-started daemon missed the cache on its first select")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("second life: %v", err)
	}

	drifted := cfg
	drifted.quantum = 0.25
	if err := run(context.Background(), "127.0.0.1:0", drifted, nil); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("drifted config booted over a stale snapshot: %v", err)
	}
}
