package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBuildProxyValidation(t *testing.T) {
	if _, err := buildProxy(config{}); err == nil {
		t.Fatal("empty replica list accepted")
	}
	if _, err := buildProxy(config{replicas: " , ,"}); err == nil {
		t.Fatal("blank replica list accepted")
	}
	if _, err := buildProxy(config{replicas: "nope"}); err == nil {
		t.Fatal("relative replica URL accepted")
	}
	p, err := buildProxy(config{replicas: " http://127.0.0.1:1 , http://127.0.0.1:2 ", healthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Ring().Replicas() != 2 {
		t.Fatalf("replicas %d, want 2", p.Ring().Replicas())
	}
}

// TestRunLifecycle boots the router daemon on a real socket against a stub
// replica, checks the proxied path and stats endpoint, then cancels the
// context and asserts a clean drain.
func TestRunLifecycle(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"stub":true}`)) //nolint:errcheck
	}))
	defer replica.Close()

	cfg := config{replicas: replica.URL, healthInterval: -1}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, "127.0.0.1:0", cfg, ready) }()
	addr := (<-ready).String()

	resp, err := http.Post("http://"+addr+"/v1/select", "application/json", strings.NewReader(`{"workload": "X"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied select: status %d", resp.StatusCode)
	}

	statsResp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Requests uint64 `json:"requests"`
		Replicas []struct {
			Up bool `json:"up"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Requests != 1 || len(st.Replicas) != 1 || !st.Replicas[0].Up {
		t.Fatalf("stats: %+v", st)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v after close", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRunShutdownWithUnusedConn: a client holding an accepted connection
// that never sends a request (http.Transport pre-dials these) must not
// stall the drain — net/http's 5 s grace for such connections would
// otherwise tie with the 5 s drain deadline and make run fail with
// "context deadline exceeded".
func TestRunShutdownWithUnusedConn(t *testing.T) {
	cfg := config{replicas: "http://127.0.0.1:1", healthInterval: -1}
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
