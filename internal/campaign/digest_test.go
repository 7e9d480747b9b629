package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

// simulatorDigest pins the simulator's numerical output bit for bit.
// It was recorded before the per-segment queries (the vibration cursor
// and the buffer-threshold test) were made O(1); those rewrites are
// only correct if they leave every result unchanged, so any drift in
// the hashed outputs below fails TestSimulatorDigest.
const simulatorDigest = "b89caa8677a579e28c60fd58e45fa1f193ac6e827833fb916a859145b3bce08c"

// TestSimulatorDigest hashes two fixed 4000-session campaigns over the
// Table V traces (every viewer-context knob on, one shard, seeds 1 and
// 3) and the full-log metrics of every Table V trace replayed by every
// default policy. encoding/json writes floats in their shortest
// round-tripping form, so the JSON is a bit-exact rendering.
//
// Only amd64 is pinned: other architectures may fuse a multiply and an
// add into one rounding, which legitimately changes low-order bits.
func TestSimulatorDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("replays 8000 sessions; skipped in -short mode")
	}
	pm, qm := power.EvalModel(), qoe.Default()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := DefaultAlgorithms(pm, qm, core.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, seed := range []int64{1, 3} {
		res, err := Run(Config{
			Traces:          traces,
			Algorithms:      specs,
			Sessions:        4000,
			Seed:            seed,
			Shards:          1,
			AbandonProb:     0.25,
			VibrationJitter: 0.3,
			OutageProb:      0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range traces {
		m, err := sim.ManifestForTrace(tr, dash.EvalLadder())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			alg, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			metrics, err := sim.RunOnTrace(tr, m, alg, pm, qm, player.DefaultBufferThresholdSec)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec.Name, tr.Name, err)
			}
			if err := enc.Encode(metrics); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simulatorDigest {
		t.Errorf("simulator digest = %s, want %s: a change altered simulated results", got, simulatorDigest)
	}
}
