package controlplane

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/obs"
	"nvmcp/internal/scenario"
	"nvmcp/internal/sim"
	"nvmcp/internal/slo"
)

// tinyScenario builds a fresh quick-preset scenario at tiny scale — small
// enough that a granted job completes in well under a second of host time.
func tinyScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.BuildPreset("quick", scenario.ScaleTiny)
	if err != nil {
		t.Fatalf("BuildPreset: %v", err)
	}
	return sc
}

const pollTimeout = 30 * time.Second

func mustDone(t *testing.T, pl *Plane, id int) JobStatus {
	t.Helper()
	st, err := pl.PollDone(id, pollTimeout)
	if err != nil {
		t.Fatalf("job %d did not finish: %v", id, err)
	}
	return st
}

func TestSubmitRunsToCompletionWithBatchChecksumParity(t *testing.T) {
	pl := New(Config{})
	defer pl.Close()

	st, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "parity"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = mustDone(t, pl, st.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (reason %q), want done", st.State, st.Reason)
	}
	if st.Result == nil || st.Result.LocalCkpts == 0 {
		t.Fatalf("done job carries no result: %+v", st.Result)
	}

	// The control plane's promise: a served run is byte-identical to the
	// same scenario run in batch mode on the serial engine.
	cfg, err := cluster.FromScenario(tinyScenario(t))
	if err != nil {
		t.Fatalf("FromScenario: %v", err)
	}
	cfg.Shards = 1
	res, _, err := cluster.Run(cfg)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	want := fmt.Sprintf("%016x", res.WorkloadChecksum)
	if st.Result.WorkloadChecksum != want {
		t.Fatalf("served checksum %s != batch checksum %s", st.Result.WorkloadChecksum, want)
	}
}

// TestFinishedJobReleasesCluster checks that a finished job drops its
// cluster and that its status keeps reporting the final run figures.
func TestFinishedJobReleasesCluster(t *testing.T) {
	pl := New(Config{})
	defer pl.Close()

	st, err := pl.Submit(tinyScenario(t), SubmitOptions{Hold: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	pl.mu.Lock()
	c := pl.jobs[st.ID].cluster
	pl.mu.Unlock()
	if err := pl.Start(st.ID); err != nil {
		t.Fatalf("Start: %v", err)
	}
	done := mustDone(t, pl, st.ID)
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job = %s (%q), result %v; want done with a result", done.State, done.Reason, done.Result)
	}

	pl.mu.Lock()
	held := pl.jobs[st.ID].cluster
	pl.mu.Unlock()
	if held != nil {
		t.Fatal("plane still holds the finished job's cluster")
	}
	wantUS, wantEvents := c.Obs.Progress()
	if done.Nodes != c.Cfg.Nodes || done.VirtualUS != wantUS || done.Events != wantEvents || wantEvents == 0 {
		t.Fatalf("status nodes/virtual_us/events = %d/%d/%d, run had %d/%d/%d",
			done.Nodes, done.VirtualUS, done.Events, c.Cfg.Nodes, wantUS, wantEvents)
	}
	later, err := pl.Status(st.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if later.Nodes != done.Nodes || later.VirtualUS != done.VirtualUS ||
		later.Events != done.Events || *later.Result != *done.Result {
		t.Fatalf("status changed after finish: %+v, then %+v", done, later)
	}
	if err := pl.Inject(st.ID, scenario.FailureSpec{}); !errors.Is(err, ErrFinished) {
		t.Fatalf("Inject on a finished job: err = %v, want ErrFinished", err)
	}
}

func TestQueueFillsThenRejectsAndRecovers(t *testing.T) {
	pl := New(Config{MaxRunning: 1, QueueDepth: 1})
	defer pl.Close()

	// A holds the only running slot; B fills the one-deep queue.
	a, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "a", Hold: true})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	if a.State != StateHeld {
		t.Fatalf("a state = %s, want held", a.State)
	}
	b, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "b"})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if b.State != StateQueued || b.WaitReason != "max-running" {
		t.Fatalf("b = %s/%q, want queued/max-running", b.State, b.WaitReason)
	}

	// C has nowhere to go: backpressure, with a machine-readable reason.
	_, err = pl.Submit(tinyScenario(t), SubmitOptions{Label: "c"})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "queue-full" {
		t.Fatalf("submit c: err = %v, want RejectError{queue-full}", err)
	}
	if got := pl.PlaneStatus().Rejected; got != 1 {
		t.Fatalf("rejected count = %d, want 1", got)
	}

	// Headroom recovers (A released and finished) -> B is admitted.
	if err := pl.Start(a.ID); err != nil {
		t.Fatalf("start a: %v", err)
	}
	if st := mustDone(t, pl, a.ID); st.State != StateDone {
		t.Fatalf("a finished %s (%s), want done", st.State, st.Reason)
	}
	if st := mustDone(t, pl, b.ID); st.State != StateDone {
		t.Fatalf("b finished %s (%s), want done", st.State, st.Reason)
	}
}

func TestFabricBudgetParksThenAdmits(t *testing.T) {
	// Learn the preset's declared demand from a throwaway plane.
	probe := New(Config{})
	st, err := probe.Submit(tinyScenario(t), SubmitOptions{Hold: true})
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	demand := st.DemandBPS
	probe.Close()
	if demand <= 0 {
		t.Fatalf("quick preset declares no fabric demand (%v); budget test needs one", demand)
	}

	// Budget fits one job but not two.
	pl := New(Config{MaxRunning: 2, FabricBudget: demand * 1.5})
	defer pl.Close()
	a, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "a", Hold: true})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "b"})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if b.State != StateQueued || b.WaitReason != "fabric-budget" {
		t.Fatalf("b = %s/%q, want queued/fabric-budget", b.State, b.WaitReason)
	}

	// Canceling A returns its demand; B must then run to completion.
	if err := pl.Cancel(a.ID, "make room"); err != nil {
		t.Fatalf("cancel a: %v", err)
	}
	if st := mustDone(t, pl, a.ID); st.State != StateCanceled {
		t.Fatalf("a finished %s, want canceled", st.State)
	}
	if st := mustDone(t, pl, b.ID); st.State != StateDone {
		t.Fatalf("b finished %s (%s), want done", st.State, st.Reason)
	}

	// A job that can never fit is rejected outright, not queued forever.
	tight := New(Config{FabricBudget: 1})
	defer tight.Close()
	_, err = tight.Submit(tinyScenario(t), SubmitOptions{})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "demand-exceeds-budget" {
		t.Fatalf("tight submit: err = %v, want RejectError{demand-exceeds-budget}", err)
	}
}

func TestWindowBudgetParksUntilHeadroom(t *testing.T) {
	probe := New(Config{})
	st, err := probe.Submit(tinyScenario(t), SubmitOptions{Hold: true})
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	demand := st.DemandBPS
	probe.Close()

	// The candidate's projected window volume (demand x 5s) exceeds the
	// budget whenever anything else is running, so B parks behind held A.
	pl := New(Config{MaxRunning: 2, WindowBudget: demand})
	defer pl.Close()
	a, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "a", Hold: true})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "b"})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if b.State != StateQueued || b.WaitReason != "window-slo" {
		t.Fatalf("b = %s/%q, want queued/window-slo", b.State, b.WaitReason)
	}

	// Once A drains out of the plane the window load is zero and an empty
	// plane always admits.
	if err := pl.Start(a.ID); err != nil {
		t.Fatalf("start a: %v", err)
	}
	mustDone(t, pl, a.ID)
	if st := mustDone(t, pl, b.ID); st.State != StateDone {
		t.Fatalf("b finished %s (%s), want done", st.State, st.Reason)
	}
}

func TestParseAdmission(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		wantErr  bool
	}{
		{"", AdmissionDeclared, false},
		{AdmissionDeclared, AdmissionDeclared, false},
		{AdmissionBurnRate, AdmissionBurnRate, false},
		{"burnrate", "", true},
	} {
		got, err := ParseAdmission(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseAdmission(%q) = %q, %v; want %q, err=%v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestBurnRateAdmissionEnablesDriftAndRuns(t *testing.T) {
	pl := New(Config{Admission: AdmissionBurnRate})
	defer pl.Close()

	st, err := pl.Submit(tinyScenario(t), SubmitOptions{Label: "burn"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Burn mode steers on drift forecasts, so the observatory must be live
	// even though the quick preset declares no drift limits.
	pl.mu.Lock()
	d := pl.jobs[st.ID].cluster.Drift
	pl.mu.Unlock()
	if d == nil {
		t.Fatal("burn-rate admission did not enable the drift observatory")
	}
	if got := pl.PlaneStatus().Admission; got != AdmissionBurnRate {
		t.Fatalf("plane status admission = %q, want %q", got, AdmissionBurnRate)
	}
	if st = mustDone(t, pl, st.ID); st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Reason)
	}
}

func TestBurnRateAdmissionHoldsWhileBudgetBurns(t *testing.T) {
	// Synthetic burning recorder: an at-least objective over a 4-window
	// horizon that two empty windows violate — burn 2/4 = the hold threshold.
	spec := &slo.Spec{Objectives: []slo.Objective{{
		Name: "drain", Series: "ckpt_window_bytes",
		Direction: slo.AtLeast, Threshold: 1, Over: 4,
	}}}
	rec := slo.New(slo.Config{Enabled: true, Spec: spec}, obs.NewRegistry())
	rec.Observe(obs.Event{TUS: (11 * time.Second).Microseconds(), Type: "tick"})
	if b := rec.MaxBurn(); b < burnHoldThreshold {
		t.Fatalf("synthetic burn = %g, want >= %g", b, burnHoldThreshold)
	}

	// White-box plane (no ticker): one running job burning budget parks the
	// queued candidate with reason "slo-burn"; the burn clearing admits it.
	pl := &Plane{
		cfg:  Config{Admission: AdmissionBurnRate, MaxRunning: 4},
		jobs: map[int]*Job{},
	}
	burning := &Job{ID: 1, state: StateRunning,
		cluster: &cluster.Cluster{SLO: rec, Obs: obs.New(sim.NewEnv())}}
	pl.jobs[1] = burning
	pl.running = 1
	cand := &Job{ID: 2, state: StateQueued, hold: true,
		started: make(chan struct{}), done: make(chan struct{})}
	pl.jobs[2] = cand
	pl.queue = []*Job{cand}

	pl.pump()
	if cand.state != StateQueued || cand.waitReason != "slo-burn" {
		t.Fatalf("candidate = %s/%q, want queued/slo-burn", cand.state, cand.waitReason)
	}
	if st := pl.PlaneStatus(); st.MaxBurn < burnHoldThreshold {
		t.Fatalf("plane status max burn = %g, want >= %g", st.MaxBurn, burnHoldThreshold)
	}

	burning.state = StateDone
	pl.running = 0
	pl.pump()
	if cand.state != StateHeld || cand.waitReason != "" {
		t.Fatalf("candidate = %s/%q after burn clears, want held", cand.state, cand.waitReason)
	}
}

func TestCancelLifecycleErrors(t *testing.T) {
	pl := New(Config{MaxRunning: 1})
	defer pl.Close()

	if err := pl.Cancel(99, ""); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown: %v, want ErrUnknownJob", err)
	}

	a, err := pl.Submit(tinyScenario(t), SubmitOptions{Hold: true})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := pl.Submit(tinyScenario(t), SubmitOptions{})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	// B is queued: cancel removes it without ever starting a run.
	if err := pl.Cancel(b.ID, "changed my mind"); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st, _ := pl.Status(b.ID)
	if st.State != StateCanceled || st.Reason != "changed my mind" {
		t.Fatalf("b = %s/%q, want canceled/changed my mind", st.State, st.Reason)
	}

	if err := pl.Start(a.ID); err != nil {
		t.Fatalf("start a: %v", err)
	}
	mustDone(t, pl, a.ID)
	if err := pl.Cancel(a.ID, ""); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel done: %v, want ErrFinished", err)
	}
}

func TestInjectPreflightAndDeterministicHeldInjection(t *testing.T) {
	pl := New(Config{})
	defer pl.Close()

	a, err := pl.Submit(tinyScenario(t), SubmitOptions{Hold: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Bad node: the pre-flight rejects it before anything is queued.
	if err := pl.Inject(a.ID, scenario.FailureSpec{AtSecs: 1, Node: 99}); err == nil {
		t.Fatal("inject node 99 on a 2-node run: want validation error")
	}
	// A valid soft failure queued while held lands at virtual t=0 via
	// OnStart, i.e. exactly like a scenario-file fault at the same time.
	if err := pl.Inject(a.ID, scenario.FailureSpec{AtSecs: 1, Node: 0}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if err := pl.Start(a.ID); err != nil {
		t.Fatalf("start: %v", err)
	}
	st := mustDone(t, pl, a.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Reason)
	}
	if len(st.Notes) != 0 {
		t.Fatalf("injection left notes: %v", st.Notes)
	}
	if st.Result.FailuresInjected != 1 {
		t.Fatalf("failures injected = %d, want 1", st.Result.FailuresInjected)
	}
	if st.Result.RecoveryLost != 0 {
		t.Fatalf("lost %d chunks recovering from the injected failure", st.Result.RecoveryLost)
	}
}
