package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/experiments"
	apps "nvmcp/internal/workload"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at small sizes on two seeds, untraced and
// traced, and checks the output contract: every named metric prints with
// its unit, and no job fails on this tree.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, seed := range []string{"1", "2"} {
			for _, trace := range []string{"0", "1"} {
				t.Run(w+"/seed"+seed+"/trace"+trace, func(t *testing.T) {
					var stdout, stderr bytes.Buffer
					code := run([]string{"--workload", w, "--seed", seed, "--seconds", "0",
						"--trace", trace, "--size", "small"}, &stdout, &stderr)
					if code != 0 {
						t.Fatalf("exit %d: %s", code, stderr.String())
					}
					lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
					var out output
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
						t.Fatalf("last line is not the result object: %v", err)
					}
					if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
						t.Fatalf("correct=%v failed=%d attempted=%d: %s",
							out.Correct, out.Failed, out.Attempted, stderr.String())
					}
					want := spec.EndToEnd
					if trace == "1" {
						want = spec.PerLayer
					}
					if len(out.Metrics) != len(want) {
						t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(out.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := out.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", m.Name)
						case got.Unit != m.Unit:
							t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
						}
					}
					if trace == "0" {
						for name, m := range out.Metrics {
							if m.Value == 0 {
								t.Errorf("end-to-end metric %s reads 0", name)
							}
						}
					}
				})
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-fig9", "--trace", "2"},
		{"--workload", "paper-fig9", "--size", "huge"},
		{"--workload", "paper-fig9", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestFig9PinsMatchExperiments re-derives the paper-fig9 oracle from
// experiments.RunFig9.
func TestFig9PinsMatchExperiments(t *testing.T) {
	check := func(scale experiments.Scale, pins fig9Pins) {
		r := experiments.RunFig9(apps.GTC(), scale)
		if len(r.Points) != len(pins.exec) {
			t.Fatalf("%s: %d cells, %d pinned", scale, len(r.Points), len(pins.exec))
		}
		for i, p := range r.Points {
			got := [3]time.Duration{p.IdealExec, p.NoPreExec, p.PreExec}
			if got != pins.exec[i] {
				t.Errorf("%s cell %d: RunFig9 %v, pinned %v", scale, i, got, pins.exec[i])
			}
		}
		if r.AvgOvhNoPre != pins.avgBurst || r.AvgOvhPre != pins.avgPrecopy {
			t.Errorf("%s averages: RunFig9 %v/%v, pinned %v/%v",
				scale, r.AvgOvhNoPre, r.AvgOvhPre, pins.avgBurst, pins.avgPrecopy)
		}
	}
	check(experiments.Quick, fig9QuickPins)
	if testing.Short() {
		t.Skip("paper scale takes seconds")
	}
	check(experiments.Paper, fig9PaperPins)
}

// TestFleetChecksumsPinned pins the small fleet's fault-free checksum on
// the serial engine and on the sharded engine at twinShards. The two differ
// by design (the sharded run folds per-shard sums), so each is pinned at its
// own shard count and never compared with the other.
func TestFleetChecksumsPinned(t *testing.T) {
	w := newFleetChaos(options{size: small, fleetSeed: 1, faultSeed: 1})
	for _, tc := range []struct {
		shards int
		want   uint64
	}{
		{1, 2614386481003756114},
		{twinShards, 17022066140940319904},
	} {
		cfg, err := cluster.FromScenario(w.scenario("none"))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = tc.shards
		res, _, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.WorkloadChecksum != tc.want {
			t.Errorf("%d shards: checksum %d, pinned %d", tc.shards, res.WorkloadChecksum, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chanrecv", "nvmcp/internal/sim.(*Proc).park", "nvmcp/internal/cluster.(*Cluster).rankBody"}, "sim"},
		{[]string{"runtime.memmove", "nvmcp/internal/core.(*Store).Snapshot"}, "core"},
		{[]string{"nvmcp/internal/stress.AnalyzeRun"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mstart"}, "sched"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
