package controlplane

import (
	"fmt"
	"time"
)

// JobStatus is one job's externally visible snapshot (the GET /api/jobs
// response element). Virtual-time fields come from the run's observer, so a
// snapshot of a live job is safe and consistent.
type JobStatus struct {
	ID       int    `json:"id"`
	Label    string `json:"label,omitempty"`
	Scenario string `json:"scenario"`
	State    State  `json:"state"`
	// Reason explains a terminal state ("" for done).
	Reason string `json:"reason,omitempty"`
	// WaitReason explains why a queued job is parked: "max-running",
	// "fabric-budget", "window-slo", or (burn-rate admission) "slo-burn".
	WaitReason string `json:"wait_reason,omitempty"`
	// CancelRequested marks a live job whose abort is queued but has not
	// yet landed on the virtual clock.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	Hold            bool `json:"hold,omitempty"`
	Nodes           int  `json:"nodes"`
	// DemandBPS is the declared fabric demand admission charged this job.
	DemandBPS   float64    `json:"demand_bytes_per_sec"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// VirtualUS / Events mirror the introspection /progress pair, per job.
	VirtualUS int64 `json:"virtual_us"`
	Events    int   `json:"events"`
	// WindowBytes is the live trailing-window checkpoint fabric volume —
	// the quantity admission weighs against the plane's WindowBudget.
	WindowBytes float64    `json:"window_bytes"`
	Notes       []string   `json:"notes,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// JobResult is the subset of cluster.Result the API exposes once a run
// reaches a terminal state with a result attached.
type JobResult struct {
	ExecTimeUS       int64   `json:"exec_time_us"`
	LocalCkpts       int     `json:"local_ckpts"`
	RemoteCkpts      int     `json:"remote_ckpts"`
	WorkloadChecksum string  `json:"workload_checksum"`
	PeakWindowBytes  float64 `json:"peak_ckpt_window_bytes"`
	FailuresInjected int     `json:"failures_injected"`
	Replans          int     `json:"replans"`
	DrainGrants      int     `json:"drain_grants"`
	DrainMaxQueued   int     `json:"drain_max_queued"`
	Restores         int64   `json:"restores"`
	RecoveryLost     int64   `json:"recovery_lost"`
}

// PlaneStatus is the scheduler-level snapshot (GET /api/plane).
type PlaneStatus struct {
	MaxRunning   int     `json:"max_running"`
	QueueDepth   int     `json:"queue_depth"`
	FabricBudget float64 `json:"fabric_budget,omitempty"`
	WindowBudget float64 `json:"window_budget,omitempty"`
	// Admission is the active admission mode: "declared" or "burn-rate".
	Admission string `json:"admission"`
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
	// RunningDemand / WindowLoad are the two live quantities admission
	// charges against the budgets above.
	RunningDemand float64 `json:"running_demand_bytes_per_sec"`
	WindowLoad    float64 `json:"window_load_bytes"`
	// MaxBurn / ForecastLoad are the burn-rate mode's live inputs: the worst
	// SLO error-budget burn across running jobs and the drift-corrected
	// window-bytes forecast admission charges instead of WindowLoad.
	MaxBurn      float64 `json:"max_slo_burn,omitempty"`
	ForecastLoad float64 `json:"forecast_window_load_bytes,omitempty"`
	Submitted    int     `json:"submitted"`
	Done         int     `json:"done"`
	Failed       int     `json:"failed"`
	Canceled     int     `json:"canceled"`
	Rejected     int     `json:"rejected"`
}

// Status snapshots one job.
func (pl *Plane) Status(id int) (JobStatus, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	j, ok := pl.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return pl.statusLocked(j), nil
}

// Jobs snapshots every job in submission order.
func (pl *Plane) Jobs() []JobStatus {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]JobStatus, 0, len(pl.order))
	for _, id := range pl.order {
		out = append(out, pl.statusLocked(pl.jobs[id]))
	}
	return out
}

// PlaneStatus snapshots the scheduler.
func (pl *Plane) PlaneStatus() PlaneStatus {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	st := PlaneStatus{
		MaxRunning:    pl.cfg.maxRunning(),
		QueueDepth:    pl.cfg.queueDepth(),
		FabricBudget:  pl.cfg.FabricBudget,
		WindowBudget:  pl.cfg.WindowBudget,
		Admission:     pl.cfg.admission(),
		Running:       pl.running,
		Queued:        len(pl.queue),
		RunningDemand: pl.runningDemand,
		WindowLoad:    pl.liveWindowLoadLocked(),
		Submitted:     len(pl.jobs),
		Rejected:      pl.rejected,
	}
	if pl.cfg.admission() == AdmissionBurnRate {
		st.MaxBurn = pl.maxBurnLocked()
		st.ForecastLoad = pl.forecastWindowLoadLocked()
	}
	for _, j := range pl.jobs {
		switch j.state {
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	return st
}

func (pl *Plane) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:              j.ID,
		Label:           j.Label,
		Scenario:        j.Scenario.Name,
		State:           j.state,
		Reason:          j.reason,
		WaitReason:      j.waitReason,
		CancelRequested: j.canceled && !j.state.Terminal(),
		Hold:            j.hold,
		Nodes:           j.Nodes,
		DemandBPS:       j.Demand,
		SubmittedAt:     j.submittedAt,
		Notes:           append([]string(nil), j.notes...),
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if j.cluster != nil {
		st.VirtualUS, st.Events = j.cluster.Obs.Progress()
		if j.state == StateRunning {
			st.WindowBytes = liveWindowBytes(j.cluster)
		}
	} else {
		st.VirtualUS, st.Events = j.virtualUS, j.events
	}
	if j.haveRes {
		r := j.res
		st.Result = &JobResult{
			ExecTimeUS:       r.ExecTime.Microseconds(),
			LocalCkpts:       r.LocalCkpts,
			RemoteCkpts:      r.RemoteCkpts,
			WorkloadChecksum: fmt.Sprintf("%016x", r.WorkloadChecksum),
			PeakWindowBytes:  r.PeakCkptWindowBytes,
			FailuresInjected: r.FailuresInjected,
			Replans:          r.Replans,
			DrainGrants:      r.DrainGrants,
			DrainMaxQueued:   r.DrainMaxQueued,
			Restores:         r.Restores,
			RecoveryLost:     r.RecoveryLost,
		}
	}
	return st
}
