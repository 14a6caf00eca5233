package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		high float64
	}{
		{999, 99, false, 95},
		{1000, 99, true, 99},
		{9999, 99.9, false, 99},
		{10000, 99.9, true, 99.9},
		{200, 95, true, 95},
		{19, 50, false, 0},
		{20, 50, true, 50},
	} {
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.ok)
		}
		if got := highestPercentile(c.n); got != c.high {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.high)
		}
	}
	xs := make([]float64, 999)
	if _, err := tail(xs, 99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := tail(xs, 99)
	if err != nil || p99 < 990 || p99 > 991 {
		t.Errorf("p99 of 1..1000 = %v, %v", p99, err)
	}
}

// A server that stalls once must charge the stall to every request that
// was due while it lasted, not only to the one it held: latency runs from
// the due time, and the generator reports how late it sent.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	var s schedule
	for i := 0; i < 60; i++ {
		s.Due = append(s.Due, time.Duration(i)*5*time.Millisecond)
		s.Keys = append(s.Keys, 0)
	}
	outs := openLoop(s, 1, func(i, key int) (int, bool) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return 0, false
		}
		resp.Body.Close()
		return resp.StatusCode, resp.StatusCode == http.StatusOK
	})
	// Requests 5..24 were due during the stall (every 5 ms for 150 ms) and
	// sent only after it: each must show most of the remaining stall.
	for i := 6; i < 20; i++ {
		remaining := stall - time.Duration(i-4)*5*time.Millisecond
		if outs[i].Lat < remaining-20*time.Millisecond || outs[i].Late < remaining-20*time.Millisecond {
			t.Errorf("request %d: latency %v, late %v; want about %v from its due time", i, outs[i].Lat, outs[i].Late, remaining)
		}
	}
	if outs[59].Lat > 50*time.Millisecond {
		t.Errorf("last request still %v late: the backlog never drained", outs[59].Lat)
	}
	st := summarise(outs, 20*time.Millisecond)
	if st.WithinLimit >= st.Sent*99/100 || st.sustained() {
		t.Errorf("a 150 ms stall passed a 20 ms limit: %+v", st)
	}
}

func TestBacklogDetection(t *testing.T) {
	limit := 10 * time.Millisecond
	mk := func(late func(i int) time.Duration) []outcome {
		outs := make([]outcome, 200)
		for i := range outs {
			outs[i] = outcome{Lat: late(i) + time.Millisecond, Late: late(i), OK: true}
		}
		return outs
	}
	steady := mk(func(i int) time.Duration { return time.Duration(i%3) * time.Millisecond })
	if backlogGrowing(steady, limit) {
		t.Error("steady lateness flagged as a growing backlog")
	}
	// Lateness rising 0.1 ms per request: 20 ms more by the end, within
	// the limit only at the start.
	growing := mk(func(i int) time.Duration { return time.Duration(i) * 100 * time.Microsecond })
	if !backlogGrowing(growing, limit) {
		t.Error("linearly growing lateness not flagged")
	}
	st := summarise(growing, 30*time.Millisecond)
	if st.WithinLimit != st.Sent || !st.Backlog || st.sustained() {
		t.Errorf("a growing backlog sustained the rate while every request met the limit: %+v", st)
	}
	// A one-off burst that drains is not a growing backlog.
	burst := mk(func(i int) time.Duration {
		if i >= 50 && i < 60 {
			return 30 * time.Millisecond
		}
		return 0
	})
	if backlogGrowing(burst, limit) {
		t.Error("a drained burst flagged as a growing backlog")
	}
	if failed := summarise([]outcome{{OK: false}, {OK: true}}, limit); failed.Failed != 1 || failed.WithinLimit != 1 {
		t.Errorf("failure accounting: %+v", failed)
	}
}

// A phase cycle's latency is the sum of its items; a trailing partial
// cycle is dropped rather than reported short.
func TestCycles(t *testing.T) {
	got := cycles([]float64{1, 2, 3, 4, 5, 6, 7}, 3)
	if len(got) != 2 || got[0] != 6 || got[1] != 15 {
		t.Fatalf("cycles = %v, want [6 15]", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(8)
	at := tr.origin
	root := tr.record("router", 7, -1, at, 1000)
	direct := tr.record("serve.http", 7, root, at, 800)
	h := tr.record("serve.handler", 7, direct, at, 500)
	tr.record("dcgm.profile", 7, h, at, 300)
	tr.record("serve.encode", 7, h, at, 50)
	tr.record("core.sweep", 7, -1, at, 90) // off-path: subtracts from nothing
	self := selfTimes(tr.spans)
	want := map[string]float64{"router": 200, "serve.http": 300, "serve.handler": 150, "dcgm.profile": 300, "serve.encode": 50, "core.sweep": 90}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
	for _, s := range tr.spans {
		if s.Req != 7 {
			t.Errorf("span %s lost its request ID", s.Name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark contract
// and against this command: the workloads it names exist here, and every
// per-layer metric has a recorded prediction.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	keys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(raw) != len(keys) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(raw), keys)
	}
	for _, k := range keys {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []map[string]string
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 || len(doc.Command) == 0 || len(doc.Command) > 32 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("size, command or run_seconds out of range: %d bytes, %v, %d", len(b), doc.Command, doc.RunSeconds)
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	runnable := map[string]bool{}
	for _, w := range workloadNames {
		runnable[w] = true
	}
	for _, w := range doc.Workloads {
		if len(w) != 2 || w["why"] == "" || len(w["why"]) > 200 {
			t.Errorf("workload %v must have exactly a name and a one-line why", w)
		}
		name(w["name"])
		if !runnable[w["name"]] {
			t.Errorf("workload %q is not one this command runs", w["name"])
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		n, _ := m["name"].(string)
		name(n)
		u, _ := m["unit"].(string)
		bound, _ := m["bound"].(float64)
		if len(m) != 4 || !unitRE.MatchString(u) || (m["better"] != "lower" && m["better"] != "higher") || bound <= 0 || bound > 0.25 {
			t.Errorf("end-to-end metric %v malformed", m)
		}
		setup = setup || (n == "setup_s" && u == "s" && m["better"] == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// Every per-layer metric needs a prediction on a listed workload;
	// predictions may also name a workload this command runs but
	// BENCHMARK.json does not list.
	predicted := map[string]bool{}
	for _, p := range spec.Predictions {
		predicted[p.Layer] = predicted[p.Layer] || seen[p.Workload]
		if p.Moves != "none" && !seen[p.Moves] {
			t.Errorf("prediction for %s names unknown end-to-end metric %q", p.Layer, p.Moves)
		}
		if !runnable[p.Workload] {
			t.Errorf("prediction for %s names unknown workload %q", p.Layer, p.Workload)
		}
	}
	for _, m := range doc.PerLayer {
		n, _ := m["name"].(string)
		name(n)
		u, _ := m["unit"].(string)
		if len(m) != 3 || !unitRE.MatchString(u) || (m["better"] != "lower" && m["better"] != "higher") {
			t.Errorf("per-layer metric %v malformed", m)
		}
		if !predicted[n] {
			t.Errorf("per-layer metric %s has no prediction on a listed workload in spec.json", n)
		}
	}
	// The traced run halves the reference phase; the serving probe gets
	// probeShare of the measuring time, halved the same way.
	for _, sp := range spec.Serving {
		if !tailOK(int(sp.RefRPS*sp.RefShare/2*float64(doc.RunSeconds)*0.9), 99) {
			t.Errorf("%s: half the reference phase at %g req/s cannot leave ten samples beyond p99 in a %d s run", sp.Path, sp.RefRPS, doc.RunSeconds)
		}
	}
	if probe := spec.Serving["select-hot"]; !tailOK(int(probe.RefRPS*probeShare/2*float64(doc.RunSeconds)*0.9), 99) {
		t.Errorf("the serving probe cannot leave ten samples beyond p99 in a %d s run", doc.RunSeconds)
	}
}
