// Command dvfs-bench regenerates the paper's tables and figures (and this
// repository's ablation studies) from the simulated substrate and prints
// them as aligned text, optionally writing each to a file.
//
// Examples:
//
//	dvfs-bench                      # every table and figure, paper order
//	dvfs-bench -only fig7,tab3      # a subset
//	dvfs-bench -ablations           # the ablation studies too
//	dvfs-bench -out results/        # also write one .txt per artifact
//
// It also carries the concurrent-serving load generator (-load): closed-loop
// workers drive the sharded-cache/admission-gate serving stack (or, with
// -load-url, a running dvfs-served daemon) and report throughput with
// p50/p99 latency per concurrency level:
//
//	dvfs-bench -load -load-out BENCH_concurrency.json
//	dvfs-bench -load -load-url http://localhost:8080 -load-concurrency 4,16
//
// Both modes accept -cpuprofile and -memprofile, which write pprof
// profiles of the whole run for `go tool pprof`:
//
//	dvfs-bench -only tab3 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"gpudvfs/internal/experiments"
)

func main() {
	// Exit via a named code so the pprof defers below flush before the
	// process terminates (os.Exit would skip them).
	os.Exit(realMain())
}

func realMain() int {
	var (
		only      = flag.String("only", "", "comma-separated artifact IDs (fig1..fig11, tab1..tab7); empty means all")
		ablations = flag.Bool("ablations", false, "also run the ablation studies (slow: retrains per variant)")
		compare   = flag.Bool("compare", false, "also print paper-reported vs reproduced comparison tables")
		cv        = flag.Bool("cv", false, "also run leave-one-workload-out cross-validation (slow: 21 retrainings)")
		seed      = flag.Int64("seed", 42, "simulation seed")
		runs      = flag.Int("runs", 3, "runs per DVFS configuration")
		workers   = flag.Int("workers", 0, "concurrent artifact builds (0 = GOMAXPROCS); output is identical for any value")
		out       = flag.String("out", "", "directory to also write one .txt file per artifact")
		markdown  = flag.Bool("md", false, "write .md (markdown tables) instead of .txt into -out")

		load        = flag.Bool("load", false, "run the concurrent-serving load generator instead of the paper artifacts")
		loadURL     = flag.String("load-url", "", "drive a running dvfs-served daemon at this base URL (default: in-process serving stack)")
		loadURLs    = flag.String("load-urls", "", "drive a fleet of running dvfs-served daemons at these comma-separated base URLs with client-side consistent-hash routing")
		loadReps    = flag.String("load-replicas", "", `replica-scaling sweep: boot each of these comma-separated replica counts (e.g. "1,2,4") as in-process dvfs-served fleets behind a dvfs-router front and load the front`)
		loadConc    = flag.String("load-concurrency", "1,4,16", "comma-separated closed-loop worker counts")
		loadReqs    = flag.Int("load-requests", 2000, "requests per scenario per concurrency level")
		loadApps    = flag.String("load-apps", "DGEMM,STREAM,NW,LAMMPS,GROMACS,NAMD", "workload names cycled in -load-url mode")
		loadDist    = flag.String("load-dist", "uniform", `workload-key distribution: "uniform" (all-miss, isolates the sweep path) or "zipf" (skewed repeats; reports the cache hit/miss split)`)
		loadMems    = flag.String("mem-freqs", "", `memory P-states the local load scenarios sweep alongside core clocks: "all", or a comma-separated MHz list; empty sweeps the core axis only`)
		loadOutPath = flag.String("load-out", "", "write the load report as JSON to this path (BENCH_serve.json shape)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
			}
		}()
	}

	if *load {
		if err := runLoad(*loadURL, *loadURLs, *loadReps, *loadConc, *loadApps, *loadDist, *loadMems, *loadReqs, *loadOutPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
			return 1
		}
		return 0
	}
	if err := run(*only, *ablations, *compare, *cv, *markdown, *seed, *runs, *workers, *out); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-bench:", err)
		return 1
	}
	return 0
}

func run(only string, ablations, compare, cv, markdown bool, seed int64, runs, workers int, out string) error {
	ctx := experiments.NewContext(experiments.Config{Seed: seed, Runs: runs, Workers: workers})

	gens := map[string]func() (*experiments.Table, error){
		"fig1":  ctx.Figure1,
		"fig3":  ctx.Figure3,
		"fig4":  ctx.Figure4,
		"fig5":  ctx.Figure5,
		"fig6":  ctx.Figure6,
		"fig7":  ctx.Figure7,
		"fig8":  ctx.Figure8,
		"fig9":  ctx.Figure9,
		"fig10": ctx.Figure10,
		"fig11": ctx.Figure11,
		"tab1":  ctx.Table1,
		"tab2":  ctx.Table2,
		"tab3":  ctx.Table3,
		"tab4":  ctx.Table4,
		"tab5":  ctx.Table5,
		"tab6":  ctx.Table6,
		"tab7":  ctx.Table7,
		// Beyond the paper: the §8 future-work voltage exploration and
		// Table 3 with bootstrap confidence intervals.
		"fut-volt": ctx.FutureVoltageTable,
		"tab3ci":   ctx.Table3CI,
	}

	var tables []*experiments.Table
	if only == "" {
		// The full suite touches every artifact; build them concurrently
		// up front (tables then render from the warm cache).
		if err := ctx.Prewarm(workers); err != nil {
			return err
		}
		all, err := ctx.All()
		if err != nil {
			return err
		}
		tables = all
	} else {
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			g, ok := gens[id]
			if !ok {
				return fmt.Errorf("unknown artifact %q", id)
			}
			t, err := g()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			tables = append(tables, t)
		}
	}
	if ablations {
		abl, err := ctx.Ablations()
		if err != nil {
			return err
		}
		tables = append(tables, abl...)
	}
	if compare {
		cmp, err := ctx.Comparisons()
		if err != nil {
			return err
		}
		tables = append(tables, cmp...)
	}
	if cv {
		t, err := ctx.CrossValidationTable()
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}

	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			return err
		}
	}

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		ext, render := ".txt", (*experiments.Table).Fprint
		if markdown {
			ext, render = ".md", (*experiments.Table).Fmarkdown
		}
		for _, t := range tables {
			f, err := os.Create(filepath.Join(out, t.ID+ext))
			if err != nil {
				return err
			}
			if err := render(t, f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d artifacts to %s\n", len(tables), out)
	}
	return nil
}
