package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

// TestQuickRunsReproduce is the smoke run of every workload: a short
// span, no failed check, a gain, and the same digest twice.
func TestQuickRunsReproduce(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := Run(name, 1, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Runs == 0 || a.Failed != 0 {
			t.Fatalf("%s: runs=%d failed=%d %v", name, a.Runs, a.Failed, a.Errors)
		}
		if g := a.Model["sim_ee_gain_min"]; !finitePositive(g) {
			t.Errorf("%s: sim_ee_gain_min %v", name, g)
		}
		b, err := Run(name, 1, quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s then %s", name, a.Digest, b.Digest)
		}
	}
}

// TestSeedChangesDigest checks that the seed argument reaches the inputs.
func TestSeedChangesDigest(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := Run(name, 1, quick)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(name, 2, quick)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a.Digest)
		}
	}
}

// TestTracingDoesNotChangeSimulation: observation (timed balancer,
// real-clock phase timers, telemetry, CPU profile) must leave every
// simulated output as it was.
func TestTracingDoesNotChangeSimulation(t *testing.T) {
	for _, name := range workloadNames() {
		plain, err := Run(name, 3, quick)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Run(name, 3, Options{Quick: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 {
			t.Fatalf("%s traced: %v", name, traced.Errors)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %s, traced %s", name, plain.Digest, traced.Digest)
		}
		for _, n := range layerNames {
			if _, ok := traced.Layers[n]; !ok {
				t.Errorf("%s: traced run lacks %s", name, n)
			}
		}
		var share float64
		for k, v := range traced.Layers {
			if strings.HasSuffix(k, ".cpu_share") {
				share += v
			}
		}
		// A short run may end before the first profiling tick.
		if share != 0 && math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", name, share)
		}
	}
}

// TestPhaseAccounting: the controller's phases happen inside Rebalance,
// and every Rebalance happens inside a Run call.
func TestPhaseAccounting(t *testing.T) {
	for _, name := range []string{"paper-f4b", "contended-hexa"} {
		r, err := runRep(name, 1, Options{Quick: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		tr := r.tr
		phases := tr.senseNs + tr.predictNs + tr.annealNs + tr.migrateNs
		if tr.epochs == 0 || phases <= 0 {
			t.Fatalf("%s: no SmartBalance epochs measured", name)
		}
		if phases > tr.coreNs {
			t.Errorf("%s: phases %dns exceed Rebalance time %dns", name, phases, tr.coreNs)
		}
		if tr.coreNs+tr.balNs > tr.nodeRunNs || tr.nodeRunNs > r.runNs {
			t.Errorf("%s: Rebalance %dns, node runs %dns, all runs %dns",
				name, tr.coreNs+tr.balNs, tr.nodeRunNs, r.runNs)
		}
	}
}

// TestLayerNamesMatchBenchmarkJSON keeps the traced output and the
// benchmark definition in step. run.py adds the two metrics that
// need untraced repetitions.
func TestLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := append([]string{"runtime.alloc_mb", "trace.overhead"}, layerNames...)
	have := map[string]bool{}
	for _, m := range spec.PerLayer {
		have[m.Name] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("BENCHMARK.json lacks per-layer metric %s", n)
		}
		delete(have, n)
	}
	for n := range have {
		t.Errorf("BENCHMARK.json lists %s, which nothing reports", n)
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"smartbalance/internal/core":       "core",
		"smartbalance/internal/perfmodel":  "machine",
		"smartbalance/internal/powermodel": "machine",
		"smartbalance/internal/workload":   "other",
		"runtime":                          "runtime",
		"internal/runtime/maps":            "runtime",
		"sort":                             "other",
		"main":                             "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
	if got := packageOf("smartbalance/internal/core.(*Annealer).Run"); got != "smartbalance/internal/core" {
		t.Errorf("packageOf = %q", got)
	}
}
