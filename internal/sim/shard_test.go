package sim

import (
	"fmt"
	"testing"
	"time"
)

// shardTrace runs two shards whose processes iterate with different step
// lengths and rendezvous through a CrossBarrier, returning each shard's
// wake-time log. The coordinator loop mirrors the cluster engine's.
func shardTrace(t *testing.T) (logs [2][]string) {
	t.Helper()
	envs := []*Env{NewEnv(), NewEnv()}
	g := NewShardGroup(envs...)
	b := NewCrossBarrier(g, []int{2, 1})
	steps := [][]time.Duration{
		{3 * time.Millisecond, 5 * time.Millisecond}, // shard 0: two procs
		{11 * time.Millisecond},                      // shard 1: one slow proc
	}
	for si, env := range envs {
		gate := b.Gate(si)
		for pi, step := range steps[si] {
			env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(step)
					gate.Await(p)
					logs[si] = append(logs[si],
						fmt.Sprintf("s%dp%d cycle %d woke at %v", si, pi, i, p.Now()))
				}
			})
		}
	}
	for {
		g.RunRound()
		if b.Full() {
			b.Release()
			continue
		}
		if b.Arrivals() != 0 {
			t.Fatalf("wedged: %s", b.State())
		}
		break
	}
	if b.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3", b.Cycles)
	}
	return logs
}

// TestCrossBarrierAlignsShards checks the conservative release rule: every
// waiter wakes at the slowest shard's arrival time, cycle after cycle.
func TestCrossBarrierAlignsShards(t *testing.T) {
	logs := shardTrace(t)
	// Shard 1's proc arrives at 11ms/22ms/33ms — always last — so every
	// cycle releases at its arrival times.
	want0 := []string{
		"s0p0 cycle 0 woke at 11ms", "s0p1 cycle 0 woke at 11ms",
		"s0p0 cycle 1 woke at 22ms", "s0p1 cycle 1 woke at 22ms",
		"s0p0 cycle 2 woke at 33ms", "s0p1 cycle 2 woke at 33ms",
	}
	want1 := []string{
		"s1p0 cycle 0 woke at 11ms",
		"s1p0 cycle 1 woke at 22ms",
		"s1p0 cycle 2 woke at 33ms",
	}
	for i, w := range want0 {
		if i >= len(logs[0]) || logs[0][i] != w {
			t.Fatalf("shard 0 log %d: got %v, want %q", i, logs[0], w)
		}
	}
	for i, w := range want1 {
		if i >= len(logs[1]) || logs[1][i] != w {
			t.Fatalf("shard 1 log %d: got %v, want %q", i, logs[1], w)
		}
	}
}

// TestShardGroupDeterministic runs the same sharded workload repeatedly; the
// traces must be identical run to run — host scheduling must not leak in.
func TestShardGroupDeterministic(t *testing.T) {
	first := shardTrace(t)
	for rep := 0; rep < 5; rep++ {
		again := shardTrace(t)
		for s := range first {
			if len(first[s]) != len(again[s]) {
				t.Fatalf("rep %d shard %d: %d entries vs %d", rep, s, len(again[s]), len(first[s]))
			}
			for i := range first[s] {
				if first[s][i] != again[s][i] {
					t.Fatalf("rep %d shard %d entry %d: %q vs %q",
						rep, s, i, again[s][i], first[s][i])
				}
			}
		}
	}
}

// TestBreakPausesAndResumes checks Env.Break stops the run loop after the
// current dispatch with all queued events intact, and a later Run resumes.
func TestBreakPausesAndResumes(t *testing.T) {
	e := NewEnv()
	var fired []int
	e.Schedule(time.Millisecond, func() {
		fired = append(fired, 1)
		e.Break()
	})
	e.Schedule(2*time.Millisecond, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("after break: fired = %v, want [1]", fired)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("clock advanced to %v during break", e.Now())
	}
	if e.pending() == 0 {
		t.Fatal("break discarded queued events")
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("after resume: fired = %v, want [1 2]", fired)
	}
}

// TestShardGroupPanicSurfacesDeterministically makes two shards panic in the
// same round and checks the lowest shard's panic is the one re-raised.
func TestShardGroupPanicSurfacesDeterministically(t *testing.T) {
	for rep := 0; rep < 10; rep++ {
		envs := []*Env{NewEnv(), NewEnv(), NewEnv()}
		g := NewShardGroup(envs...)
		envs[1].Go("boom1", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("shard 1 exploded")
		})
		envs[2].Go("boom2", func(p *Proc) {
			p.Sleep(time.Microsecond)
			panic("shard 2 exploded")
		})
		func() {
			defer func() {
				r := recover()
				if r != "shard 1 exploded" {
					t.Fatalf("rep %d: recovered %v, want shard 1's panic", rep, r)
				}
			}()
			g.RunRound()
			t.Fatalf("rep %d: RunRound returned without panicking", rep)
		}()
	}
}

// TestNegativeDelayWarnsOnce checks the Schedule contract: the clamp fires
// every time, the warning exactly once per Env.
func TestNegativeDelayWarnsOnce(t *testing.T) {
	e := NewEnv()
	var warns []string
	e.SetWarnFunc(func(code, msg string) { warns = append(warns, code+": "+msg) })
	var fired []time.Duration
	e.Schedule(5*time.Millisecond, func() {
		e.Schedule(-3*time.Millisecond, func() { fired = append(fired, e.Now()) })
		e.Schedule(-time.Hour, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 5*time.Millisecond {
		t.Fatalf("negative delays fired at %v, want clamped to 5ms", fired)
	}
	if len(warns) != 1 {
		t.Fatalf("got %d warnings, want exactly 1: %v", len(warns), warns)
	}
	if warns[0][:len("negative-delay")] != "negative-delay" {
		t.Fatalf("warning code: %q", warns[0])
	}
}
