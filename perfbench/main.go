// Command perfbench is the repository's benchmark. It runs one workload —
// select-hot, profile-sweep or govern-cycle — checks every
// output the workload produces, and prints each metric by name with its
// unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 they are its per-layer metrics, from a run that
// records spans around the calls into each layer. A failed check exits 1
// and prints no numbers. Run it from the repository root through
// perfbench/run.sh, which builds the daemons and this command first:
//
//	bash perfbench/run.sh --workload profile-sweep --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{"select-hot", "profile-sweep", "govern-cycle"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics and request accounting.
type report struct {
	metrics           map[string]metric
	attempted, failed int
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setup reports the median of a run's set-up times as setup_s and prints
// them all.
func (r *report) setup(times []float64) {
	fmt.Printf("set-ups (s): %.4g\n", times)
	r.set("setup_s", median(times), "s")
}

// phase prints one load phase's accounting and adds it to the run's.
func (r *report) phase(name string, rate float64, st phaseStats) {
	r.attempted += st.Sent
	r.failed += st.Failed
	fmt.Printf("phase %-20s offered %7.1f req/s  sent %6d  succeeded %6d  failed %4d  shed %4d  within-limit %6d  late-p99 %7.2f ms  backlog %v\n",
		name, rate, st.Sent, st.OK, st.Failed, st.Shed, st.WithinLimit, st.LateP99, st.Backlog)
}

// env is one run's configuration.
type env struct {
	spec    benchSpec
	seed    int64
	seconds float64
	trace   bool
	binDir  string
	workDir string
	conns   int
	rep     *report
	tr      *tracer
}

// duration is share of the run's measuring time.
func (e *env) duration(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

func (e *env) timeout() time.Duration {
	return time.Duration(e.spec.RequestTimeoutMS * float64(time.Millisecond))
}

func (e *env) logExits(exits []string) {
	for _, x := range exits {
		fmt.Println("teardown:", x)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 30, "measuring time")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding dvfs-served and dvfs-router")
		commit   = flag.String("commit", "unknown", "commit under test, for the stamp")
	)
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	want, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d | host %s nproc %d GOMAXPROCS %d %s commit %s\n",
		*workload, *seed, *seconds, *traced, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	workDir, err := filepath.Abs(filepath.Join(filepath.Dir(*binDir), fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	e := &env{
		spec: spec, seed: *seed, seconds: *seconds, trace: *traced == 1,
		binDir: *binDir, workDir: workDir, conns: runtime.NumCPU(),
		rep: &report{metrics: map[string]metric{}},
	}
	if e.trace {
		e.tr = newTracer(1 << 16)
	}
	t0, s0, _ := hostSteal()
	if e.trace && *workload != "select-hot" && *workload != "profile-sweep" {
		// Layers off this workload's path are measured by short probes so
		// every traced run reports every layer.
		if err := servingProbe(e); err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}
	}
	switch *workload {
	case "select-hot", "profile-sweep":
		err = runServing(e, *workload)
	case "govern-cycle":
		err = runGovern(e)
	}
	if err != nil {
		return err
	}
	if e.trace {
		if *workload != "govern-cycle" {
			if err := governProbe(e); err != nil {
				return fmt.Errorf("governor probe: %w", err)
			}
		}
		path, err := e.tr.write(filepath.Join(filepath.Dir(*binDir), "spans"), fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	}
	if t1, s1, ok := hostSteal(); ok && t0 != 0 && t1 > t0 {
		fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during this run\n", 100*float64(s1-s0)/float64(t1-t0))
	}
	names := want.endToEnd
	if e.trace {
		names = want.perLayer
	}
	return emit(e.rep, names)
}

// hostSteal reads the cumulative CPU ticks and the ticks stolen by the
// hypervisor from /proc/stat. The stolen share during a run says how far
// the host, not the program, moved its timings.
func hostSteal() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// benchmarkNames are the metric names and units BENCHMARK.json declares.
type benchmarkNames struct {
	endToEnd, perLayer map[string]string
}

func loadBenchmarkJSON(path string) (benchmarkNames, error) {
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return benchmarkNames{}, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return benchmarkNames{}, fmt.Errorf("%s: %w", path, err)
	}
	n := benchmarkNames{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		n.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		n.perLayer[m.Name] = m.Unit
	}
	return n, nil
}

// emit prints every metric by name with its unit, then the result line.
// The run's metric set must be exactly the declared one, units included.
func emit(r *report, declared map[string]string) error {
	out := map[string]metric{}
	for name, unit := range declared {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, m.Unit, unit)
		}
		out[name] = m
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %14.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
