package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"nvmcp/internal/obs"
	"nvmcp/internal/scenario"
)

// presetReport runs a preset scenario and serializes its full RunReport —
// config echo, per-round checkpoint aggregation, every metric, event count
// and virtual end time.
func presetReport(t *testing.T, presetID string, scale scenario.Scale) []byte {
	t.Helper()
	p, ok := scenario.PresetByID(presetID)
	if !ok || p.Build == nil {
		t.Fatalf("preset %q missing or bench-only", presetID)
	}
	cfg, err := FromScenario(p.Build(scale))
	if err != nil {
		t.Fatal(err)
	}
	res, c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Obs.BuildReport("determinism-test", cfg, res)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunReportDeterministic asserts the simulation is bit-reproducible:
// two identical runs — one clean, one driving the failure-injection and
// multi-level recovery paths — must produce byte-identical RunReports.
// This is the contract the hot-path optimizations are held to; a float
// summed in map order or a goroutine racing the virtual clock shows up
// here as a diff.
func TestRunReportDeterministic(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  scenario.Scale
	}{
		{"fig8", scenario.ScaleQuick}, // clean run, dcpcp local checkpoints
		{"faults", scenario.ScaleQuick},
	} {
		first := presetReport(t, tc.preset, tc.scale)
		for run := 2; run <= 3; run++ {
			if again := presetReport(t, tc.preset, tc.scale); !bytes.Equal(first, again) {
				t.Errorf("preset %s: run %d report differs from run 1\nrun 1: %d bytes\nrun %d: %d bytes",
					tc.preset, run, len(first), run, len(again))
			}
		}
	}
}

// artifactDigests pins, per run, the SHA-256 (first 16 hex digits) of the
// RunReport JSON followed by the JSONL typed event log, for every
// cluster-shaped preset at tiny scale ("preset/<id>") and every checked-in
// scenario file ("scenario/<file>"). It is the data oracle for engine
// changes that must not move a single simulated byte: a refactor or speedup
// that changes any digest changed the simulation, not only its cost.
var artifactDigests = map[string]string{
	"preset/cm1":                   "eda7d739e2893142",
	"preset/endurance":             "e069b505dd32649a",
	"preset/erasure":               "85dcb6138931656e",
	"preset/failures":              "0dd077b893a76735",
	"preset/faults":                "3c96e6540fff35dd",
	"preset/fig10":                 "dca4954113dfefd8",
	"preset/fig7":                  "d2cee533a8a28928",
	"preset/fig8":                  "2e1688bec56e0e61",
	"preset/fig9":                  "e73d0038d33b76ea",
	"preset/fleet-chaos":           "0269d2d810018f53",
	"preset/fleet-naive":           "92c28ae97bef05df",
	"preset/fleet-storm":           "56123809cb1f8dc1",
	"preset/fleet-zone":            "6cb18439176ba4f2",
	"preset/hierarchy":             "0ab040ccf77febcb",
	"preset/interval":              "f427fc613ea48be3",
	"preset/quick":                 "6d15094c0f136739",
	"preset/slo-faults":            "c37526225db4caaa",
	"preset/slo-paper":             "1bf290c200a59d0f",
	"preset/tab5":                  "b9199244b22157db",
	"scenario/drift-breach.json":   "23113f792503d638",
	"scenario/erasure-remote.json": "857d891a6b0ba8a7",
	"scenario/faults-cascade.json": "2a468cdc623faf98",
	"scenario/slo-breach.json":     "182886607e487aa4",
	"scenario/zone-outage.json":    "c855fede4971de39",
}

// artifactDigest runs sc on the engine its config selects (serial unless the
// scenario pins shards) and hashes its report and event log as nvmcp-sim
// writes them with -report-out and -events-out.
func artifactDigest(t *testing.T, sc *scenario.Scenario) string {
	t.Helper()
	cfg, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Obs.BuildReport("nvmcp-sim", cfg, res)
	if c.Lineage != nil {
		rep.Lineage = c.Lineage.Summary()
	}
	if c.SLO != nil {
		rep.SLO = c.SLO.Summary()
	}
	h := sha256.New()
	if err := obs.WriteReport(h, rep); err != nil {
		t.Fatal(err)
	}
	if err := c.Obs.WriteEventsJSONL(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestArtifactDigests holds every preset and scenario file to its pinned
// artifact digest. On a mismatch it prints the full table of current
// digests, ready to paste over artifactDigests once a behaviour change is
// intended.
func TestArtifactDigests(t *testing.T) {
	runs := map[string]*scenario.Scenario{}
	for _, p := range scenario.Presets() {
		if !p.ClusterShaped() {
			continue
		}
		sc, err := scenario.BuildPreset(p.ID, scenario.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		runs["preset/"+p.ID] = sc
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "docs", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found (%v)", err)
	}
	for _, f := range files {
		sc, err := scenario.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		runs["scenario/"+filepath.Base(f)] = sc
	}

	got := map[string]string{}
	var mu sync.Mutex
	t.Run("runs", func(t *testing.T) {
		for id, sc := range runs {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				d := artifactDigest(t, sc)
				mu.Lock()
				got[id] = d
				mu.Unlock()
			})
		}
	})

	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var drift bool
	for _, id := range ids {
		if want, ok := artifactDigests[id]; !ok || want != got[id] {
			t.Errorf("%s: artifact digest %s, pinned %q", id, got[id], want)
			drift = true
		}
	}
	for id := range artifactDigests {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: pinned but no longer run", id)
			drift = true
		}
	}
	if drift {
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, "\t%q: %q,\n", id, got[id])
		}
		t.Logf("current digests:\n%s", b.String())
	}
}
