package main

import (
	"fmt"
	"math/rand"
	"net/http"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/serve"
	"gpudvfs/internal/stats"
)

// replicaSeed is dvfs-served's default -seed: the in-process reference
// stack profiles with the same noise as the replicas it checks.
const replicaSeed = 11

// buildModels returns the benchmark's model set: the paper's network shape
// (3 inputs, three hidden layers of 64 SELU units, one linear output) for
// power and time, as dvfs-train saves it, with weights drawn from seed.
func buildModels(seed int64) (*core.Models, error) {
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 2*seed+1)
	if err != nil {
		return nil, err
	}
	tm, err := nn.NewNetwork(nn.PaperArch(3), 2*seed+2)
	if err != nil {
		return nil, err
	}
	return &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tm,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}, nil
}

// refStack is dvfs-served's serving stack assembled in process with the
// replica's default configuration: the oracle every response is checked
// against, and the handler the traced run times without a socket.
type refStack struct {
	models  *core.Models
	dev     backend.Device
	sw      *core.Sweeper
	srv     *serve.Server
	handler http.Handler
}

func newRefStack(m *core.Models) (*refStack, error) {
	dev, err := sim.NewByName("GA100", replicaSeed)
	if err != nil {
		return nil, err
	}
	arch := dev.Arch()
	sw, err := m.GridSweeperFor(arch, arch.DesignClocks(), nil)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(sw, serve.ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}})
	if err != nil {
		return nil, err
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Device: dev, ProfileSeed: replicaSeed})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &refStack{models: m, dev: dev, sw: sw, srv: srv, handler: h}, nil
}

// nameSeed is the serving handler's per-workload profiling seed offset
// (FNV-1a of the name, sign bit cleared), so a benchmark-side profiling
// call reproduces the telemetry the handler sees.
func nameSeed(name string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h &^ (1 << 63))
}

// zipfKeys returns a generator of Zipf(s)-distributed indices into names:
// rank i is names[i], so the hottest key is fixed and the seed decides the
// sequence.
func zipfKeys(rng *rand.Rand, s float64, n int) (func() int, error) {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("zipf: invalid parameters s=%v n=%d", s, n)
	}
	return func() int { return int(z.Uint64()) }, nil
}

func requestBody(name string) []byte { return []byte(fmt.Sprintf(`{"workload":%q}`, name)) }

// sweepCost counts one sweep's work from the layer shapes of both
// networks over rows grid points: two flops per multiply-add plus the bias
// add, and the bytes of every weight read once plus every layer's input
// and output activations.
func sweepCost(rows int, m *core.Models) (flops, bytes float64) {
	for _, net := range []*nn.Network{m.Power, m.Time} {
		for _, l := range net.Layers {
			flops += float64(rows) * float64(2*l.In*l.Out+l.Out)
			bytes += 8 * float64(l.In*l.Out+l.Out+rows*(l.In+l.Out))
		}
	}
	return flops, bytes
}
