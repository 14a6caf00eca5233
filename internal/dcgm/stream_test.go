package dcgm

import (
	"math"
	"reflect"
	"testing"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/replay"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/workloads"
)

// TestStreamMatchesProfileSim pins the tentpole contract of the streaming
// seam on the stochastic backend: collecting a streamed run's yields
// reproduces the batch Profile byte for byte — same values, same order,
// same noise draws — for every clock and run index.
func TestStreamMatchesProfileSim(t *testing.T) {
	k := testKernel()
	cfg := Config{Seed: 7, Runs: 2}
	batch := NewCollector(sim.New(sim.GA100(), 3), cfg)
	streamColl := NewCollector(sim.New(sim.GA100(), 3), cfg)
	strm, err := streamColl.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{510, 900, 1410} {
		for r := 0; r < 2; r++ {
			if err := batch.ctrl.Apply(f); err != nil {
				t.Fatal(err)
			}
			if err := strm.Device().SetClock(f); err != nil {
				t.Fatal(err)
			}
			want, err := batch.smp.Profile(k, r)
			if err != nil {
				t.Fatal(err)
			}
			var got []Sample
			run, err := strm.Run(k, r, func(s backend.Sample) { got = append(got, s) })
			if err != nil {
				t.Fatal(err)
			}
			if run.Samples != nil {
				t.Fatalf("streamed run retained samples: %d", len(run.Samples))
			}
			if !reflect.DeepEqual(got, want.Samples) {
				t.Fatalf("streamed samples diverge from batch at %v MHz run %d", f, r)
			}
			run.Samples = want.Samples
			if !reflect.DeepEqual(run, want) {
				t.Fatalf("streamed run-level outcomes diverge at %v MHz run %d:\n got %+v\nwant %+v", f, r, run, want)
			}
		}
	}
}

// TestStreamMatchesProfileReplay pins the same contract on the recorded
// backend, including run-index wraparound.
func TestStreamMatchesProfileReplay(t *testing.T) {
	src := NewCollector(sim.New(sim.GA100(), 5), Config{Freqs: []float64{900, 1410}, Runs: 2, Seed: 6})
	recorded, err := src.CollectWorkload(testKernel())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := replay.New(recorded, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollector(dev, Config{})
	strm, err := coll.Stream()
	if err != nil {
		t.Fatal(err)
	}
	app := backend.Named("test")
	for _, f := range []float64{900, 1410} {
		if err := dev.SetClock(f); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ { // 3 > recorded Runs: exercises wraparound
			want, err := coll.smp.Profile(app, r)
			if err != nil {
				t.Fatal(err)
			}
			var got []Sample
			run, err := strm.Run(app, r, func(s backend.Sample) { got = append(got, s) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Samples) {
				t.Fatalf("replay stream diverges from batch at %v MHz run %d", f, r)
			}
			run.Samples = want.Samples
			if !reflect.DeepEqual(run, want) {
				t.Fatalf("replay streamed outcomes diverge at %v MHz run %d", f, r)
			}
		}
	}
}

// batchOnlySampler strips the streaming side of a sampler, standing in for
// a backend that cannot deliver telemetry incrementally.
type batchOnlySampler struct{ inner backend.Sampler }

func (b batchOnlySampler) Profile(w backend.Workload, runIndex int) (backend.Run, error) {
	return b.inner.Profile(w, runIndex)
}

// batchOnlyDevice wraps a device so its samplers are batch-only.
type batchOnlyDevice struct{ backend.Device }

func (d batchOnlyDevice) NewSampler(cfg backend.SampleConfig) backend.Sampler {
	return batchOnlySampler{inner: d.Device.NewSampler(cfg)}
}

func TestStreamRequiresStreamSampler(t *testing.T) {
	coll := NewCollector(batchOnlyDevice{sim.New(sim.GA100(), 1)}, Config{})
	if _, err := coll.Stream(); err == nil {
		t.Fatal("Stream() over a batch-only sampler should fail")
	}
}

// idsOf lists the field IDs whose bits are set in mask, in ascending ID
// order.
func idsOf(mask uint16) []FieldID {
	var ids []FieldID
	for _, id := range AllFields() {
		if backend.FieldSet(mask).Has(fieldTable[id].bit) {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkScoped compares one scoped sample against the full stream's:
// requested fields bit-identical, every other field zero, interval
// metadata equal.
func checkScoped(t *testing.T, ids []FieldID, full, scoped Sample) {
	t.Helper()
	want := make(map[FieldID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, id := range AllFields() {
		fv, _ := id.Value(full)
		sv, _ := id.Value(scoped)
		switch {
		case want[id] && math.Float64bits(sv) != math.Float64bits(fv):
			t.Fatalf("requested %s = %v, full stream %v", id, sv, fv)
		case !want[id] && sv != 0:
			t.Fatalf("unrequested %s = %v, want 0", id, sv)
		}
	}
	if scoped.TimeSec != full.TimeSec || scoped.MemClockMHz != full.MemClockMHz {
		t.Fatalf("interval metadata (%v s, %v MHz), full stream (%v s, %v MHz)",
			scoped.TimeSec, scoped.MemClockMHz, full.TimeSec, full.MemClockMHz)
	}
}

// FuzzStreamFieldsMatchFull is the field-set contract on the stochastic
// backend: over two consecutive runs of one session, a stream scoped to
// any field set yields the full stream's run outcomes and sample count,
// its requested fields bit for bit, and zeros elsewhere. The second run
// proves the scoped run left the noise stream where the full one did;
// discardFirst additionally runs the first one with a nil yield, which
// synthesizes no fields at all.
func FuzzStreamFieldsMatchFull(f *testing.F) {
	all := workloads.All()
	f.Add(int64(1), uint8(0), uint8(60), int8(60), uint16(backend.FieldFP64Active|backend.FieldFP32Active|backend.FieldDRAMActive), false)
	f.Add(int64(2), uint8(1), uint8(0), int8(7), uint16(backend.FieldPowerUsage), true)
	f.Add(int64(3), uint8(5), uint8(30), int8(-1), uint16(0), false)
	f.Add(int64(4), uint8(9), uint8(45), int8(3), uint16(backend.AllFields), true)
	clocks := sim.GA100().Spec().DesignClocks()

	f.Fuzz(func(t *testing.T, seed int64, wl, clock uint8, maxSamples int8, mask uint16, discardFirst bool) {
		k := all[int(wl)%len(all)]
		freq := clocks[int(clock)%len(clocks)]
		ids := idsOf(mask)
		cfg := Config{Seed: seed, MaxSamplesPerRun: int(maxSamples)}
		open := func(fields ...FieldID) *Stream {
			strm, err := NewCollector(sim.New(sim.GA100(), seed), cfg).Stream(fields...)
			if err != nil {
				t.Fatal(err)
			}
			if err := strm.Device().SetClock(freq); err != nil {
				t.Fatal(err)
			}
			return strm
		}
		full, scoped := open(), open(ids...)
		if len(ids) == 0 {
			ids = AllFields() // an empty field list streams every field
		}
		for r := 0; r < 2; r++ {
			var want, got []Sample
			wantRun, err := full.Run(k, r, func(s Sample) { want = append(want, s) })
			if err != nil {
				t.Fatal(err)
			}
			yield := func(s Sample) { got = append(got, s) }
			if discardFirst && r == 0 {
				yield = nil
			}
			gotRun, err := scoped.Run(k, r, yield)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRun, wantRun) {
				t.Fatalf("run %d outcomes: scoped %+v, full %+v", r, gotRun, wantRun)
			}
			if yield == nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("run %d: scoped stream yielded %d samples, full %d", r, len(got), len(want))
			}
			for i := range got {
				checkScoped(t, ids, want[i], got[i])
			}
		}
	})
}

// TestStreamFieldsReplay pins the field-set contract on the recorded
// backend: requested fields are served verbatim, the rest zeroed, and the
// recording itself is untouched.
func TestStreamFieldsReplay(t *testing.T) {
	src := NewCollector(sim.New(sim.GA100(), 5), Config{Freqs: []float64{1410}, Runs: 1, Seed: 6})
	recorded, err := src.CollectWorkload(testKernel())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := replay.New(recorded, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []FieldID{FieldDRAMActive, FieldPCIeRxBytes}
	strm, err := NewCollector(dev, Config{}).Stream(ids...)
	if err != nil {
		t.Fatal(err)
	}
	var got []Sample
	if _, err := strm.Run(backend.Named("test"), 0, func(s Sample) { got = append(got, s) }); err != nil {
		t.Fatal(err)
	}
	want := recorded[0].Samples
	if len(got) != len(want) {
		t.Fatalf("yielded %d samples, recording has %d", len(got), len(want))
	}
	for i := range got {
		checkScoped(t, ids, want[i], got[i])
	}
	if want[0].FP64Active == 0 {
		t.Fatal("masking wrote through to the recording")
	}
}

func TestStreamRejectsUnknownField(t *testing.T) {
	if _, err := NewCollector(sim.New(sim.GA100(), 1), Config{}).Stream(FieldDRAMActive, FieldID(7)); err == nil {
		t.Fatal("Stream accepted an unknown field ID")
	}
}

// TestFieldTablesAgree ties together every list of the 11 metric fields:
// fieldTable's ID→bit map, the backend bits and FieldSet.Mask, the sim
// sampler's per-field synthesis, and FieldID.Value. Each ID owns one
// distinct bit, the bits cover backend.AllFields, and both Mask and a sim
// stream scoped to a single ID keep exactly that field of the full sample.
func TestFieldTablesAgree(t *testing.T) {
	var union backend.FieldSet
	for _, id := range AllFields() {
		bit := fieldTable[id].bit
		if bit == 0 || bit&(bit-1) != 0 || union&bit != 0 {
			t.Fatalf("%s: bit %#x is not a single unused bit", id, bit)
		}
		union |= bit
	}
	if union != backend.AllFields {
		t.Fatalf("field bits cover %#x, want %#x", union, backend.AllFields)
	}

	populated := Sample{
		TimeSec: 1, MemClockMHz: 1597,
		FP64Active: 0.4, FP32Active: 0.2, SMAppClockMHz: 900,
		DRAMActive: 0.3, GrEngineActive: 0.9, GPUUtilization: 0.95,
		PowerUsage: 250, SMActive: 0.85, SMOccupancy: 0.6,
		PCIeTxMBps: 100, PCIeRxMBps: 50,
	}
	k := testKernel()
	stream := func(fields ...FieldID) []Sample {
		strm, err := NewCollector(sim.New(sim.GA100(), 3), Config{Seed: 7}).Stream(fields...)
		if err != nil {
			t.Fatal(err)
		}
		var out []Sample
		if _, err := strm.Run(k, 0, func(s Sample) { out = append(out, s) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := stream()
	for _, id := range AllFields() {
		ids := []FieldID{id}
		checkScoped(t, ids, populated, fieldTable[id].bit.Mask(populated))
		got := stream(id)
		if len(got) != len(full) {
			t.Fatalf("%s: scoped stream yielded %d samples, full %d", id, len(got), len(full))
		}
		for i := range got {
			checkScoped(t, ids, full[i], got[i])
		}
	}
}
