package main

import (
	"path/filepath"
	"testing"
)

// TestBaselinesPassOwnGates holds every checked-in baseline to the gates
// its own check would apply to a fresh reading: a record that breaks the
// overhead or stagger gate must never become the reference.
func TestBaselinesPassOwnGates(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baseline records found (%v)", err)
	}
	for _, path := range paths {
		rec, err := readRecord(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range selfGateFailures(rec) {
			t.Errorf("%s: %s", filepath.Base(path), f)
		}
	}
}

func TestSelfGateRejectsOverhead(t *testing.T) {
	if fails := selfGateFailures(perfRecord{OverheadFrac: 0.445}); len(fails) != 1 {
		t.Fatalf("44.5%% overhead: %d gate failures, want 1", len(fails))
	}
	if fails := selfGateFailures(perfRecord{OverheadFrac: 0.02}); len(fails) != 0 {
		t.Fatalf("2%% overhead failed the gate: %v", fails)
	}
}
