GO ?= go

# Packages with dedicated concurrent paths: they get a -race pass in check.
RACE_PKGS = ./internal/mat ./internal/nn ./internal/dcgm ./internal/mi ./internal/neighbors ./internal/stats ./internal/sched ./internal/backend/... ./internal/governor ./internal/trace ./internal/serve ./internal/fleet ./internal/router ./internal/obs

.PHONY: all build test race bench-smoke bench-router bench-governor bench-phasecache fuzz-smoke vet fmt-check cross check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross keeps the portable (non-amd64) kernel path compiling and vetted:
# mat's SSE2 kernel is amd64-only, so every other GOARCH runs the Go tile.
# Both commands work offline; vet's asmdecl pass checks the amd64 .s frame
# in the vet target above.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/nn

# fmt-check fails (and names the offenders) if any tracked Go file is not
# gofmt-clean. Formatting is a gate, not a suggestion.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# race runs the race detector over every package with a concurrent code
# path. The experiments/core integration suites are too slow to run fully
# under -race, so only their fast concurrency tests (which exercise all
# new concurrent paths) are included.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)
	$(GO) test -race -count=1 -run 'Deterministic|Concurrent|Singleflight|PlanCache|Grid' ./internal/core
	$(GO) test -race -count=1 -run 'Singleflight' ./internal/experiments

# bench-smoke compiles and runs each hot-path benchmark once, catching
# benchmark bit-rot without paying for stable measurements. The mi run
# covers the BENCH_mi.json scaling table (tree and brute, n up to 12k);
# the core/sched run covers the BENCH_serve.json serving-path table; the
# replay run covers the BENCH_backend.json trace-serving overhead table;
# the core miss and serve runs (the serve run includes the gated
# ServePredict arm) cover the BENCH_concurrency.json concurrent-serving
# table; the Sweep1D/Sweep2D arms plus the mat
# MulTB61x64 naive/blocked/kernel split cover the BENCH_sweep2d.json 1-D vs 2-D
# sweep-cost table; the fleet 100k arms cover the BENCH_fleet.json
# event-engine table (and re-assert its 0-alloc steady-state invariant);
# the router/obs arms cover the ring-lookup and metrics-render hot paths
# behind BENCH_router.json (and re-assert their 0-alloc invariants); the
# trace/governor arms cover the online change-point push and the
# streaming-governor step behind BENCH_governor.json (and re-assert the
# governor loop's 0-alloc steady-state invariant); the PhaseRePin arm
# covers the memoized re-pin fast path behind BENCH_phasecache.json (and
# re-asserts its 0-alloc invariant).
bench-smoke:
	$(GO) test -run '^$$' -bench Figure7 -benchtime=1x .
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/nn ./internal/mat ./internal/mi
	$(GO) test -run '^$$' -bench 'PredictProfile|PlanCacheSelect|PlanFleet|Sweep1D|Sweep2D' -benchtime=1x ./internal/core ./internal/sched
	$(GO) test -run '^$$' -bench ReplayProfile -benchtime=1x ./internal/backend/replay
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/serve
	$(GO) test -run '^$$' -bench 'Fleet.*100k' -benchtime=1x ./internal/fleet
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/router ./internal/obs
	$(GO) test -run '^$$' -bench 'OnlinePush|DetectOffline' -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench 'GovernorStep|PhaseRePin' -benchtime=1x ./internal/governor

# bench-router records BENCH_router.json: the 1/2/4-replica scaling sweep
# behind the dvfs-router front (in-process replicas on loopback sockets,
# Zipf-skewed keys so the hit/miss split is visible). Not part of check —
# run on a multi-core host for meaningful scaling numbers.
bench-router:
	$(GO) run ./cmd/dvfs-bench -load -load-replicas 1,2,4 -load-dist zipf -load-concurrency 8,16 -load-requests 2000 -load-out BENCH_router.json

# bench-governor records BENCH_governor.json: the 4-arm DVFS-policy
# comparison (always-max / one-shot / phased-static / streaming) on a
# phase-shifting workload stream. Not part of check — the quick-trained
# models take a couple of minutes on a laptop.
bench-governor:
	$(GO) run ./cmd/dvfs-govern -runs 24 -period 4 -out BENCH_governor.json

# bench-phasecache records BENCH_phasecache.json: the 5-arm comparison
# adding the phase-memoizing governor (streaming+memo) on the period-4
# phase-shift stream — re-pins without re-profiling, the re-pin path's
# allocs/op, and energy/time relative to the plain streaming arm.
bench-phasecache:
	$(GO) run ./cmd/dvfs-govern -runs 24 -period 4 -phase-cache 8 -out BENCH_phasecache.json

# fuzz-smoke gives the differential fuzzers a short budget on every check;
# regressions in kernel exactness, estimator exactness, or plan-cache key
# aliasing (including the mem-axis-extended keys and the governor's phase
# fingerprints), or a field-scoped telemetry stream drifting from the full
# one, surface here first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMulTBBlockedMatchesNaive -fuzztime=5s ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzEstimateMatchesBrute -fuzztime=5s ./internal/mi
	$(GO) test -run '^$$' -fuzz FuzzPlanKeyQuantizer -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzPlanKeyGrid$$' -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzReplayRoundTrip -fuzztime=5s ./internal/backend/replay
	$(GO) test -run '^$$' -fuzz FuzzPhaseFingerprint -fuzztime=5s ./internal/governor
	$(GO) test -run '^$$' -fuzz FuzzStreamFieldsMatchFull -fuzztime=5s ./internal/dcgm

check: fmt-check vet build cross test race bench-smoke fuzz-smoke
