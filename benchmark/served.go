package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/controlplane"
	"nvmcp/internal/scenario"
)

// served-mix is the resident control plane in-process: a closed loop of
// clients, each holding one submission outstanding, POSTs inline scenarios
// to Plane.Handler() over loopback HTTP and waits for completion through
// Plane.PollDone, so no client polling interval quantises the latency. The
// jobs cycle three quick-scale presets in a seeded order: quick (the
// canonical run), faults (fault cascade and PFS drain) and slo-paper (SLO
// and drift taps on the bus).
type servedMix struct {
	scenarios map[string]*scenario.Scenario
	bodies    map[string][]byte
	order     []string
}

const (
	// servedClients is the closed loop's concurrency: twice MaxRunning, so
	// admission always has a queued job to grant.
	servedClients = 4
	servedRunning = 2
	// servedQueue exceeds servedClients, so a submit is never refused
	// with 429 for a full queue.
	servedQueue = 16
)

var servedPresets = []string{"quick", "faults", "slo-paper"}

func newServedMix(o options) (*servedMix, error) {
	scale, jobs := scenario.ScaleQuick, 120
	if o.size == small {
		scale, jobs = scenario.ScaleTiny, 12
	}
	w := &servedMix{
		scenarios: make(map[string]*scenario.Scenario),
		bodies:    make(map[string][]byte),
	}
	for _, id := range servedPresets {
		sc, err := scenario.BuildPreset(id, scale)
		if err != nil {
			return nil, err
		}
		if len(sc.Failures) > 0 {
			sc.FaultSeed = o.faultSeed
		}
		body, err := json.Marshal(controlplane.SubmitRequest{Scenario: sc, Label: id})
		if err != nil {
			return nil, err
		}
		w.scenarios[id], w.bodies[id] = sc, body
	}
	rng := rand.New(rand.NewSource(o.seed))
	for len(w.order) < jobs {
		for _, i := range rng.Perm(len(servedPresets)) {
			w.order = append(w.order, servedPresets[i])
		}
	}
	w.order = w.order[:jobs]
	return w, nil
}

func (w *servedMix) pass(p *pass) (err error) {
	t := time.Now()
	pl := controlplane.New(controlplane.Config{MaxRunning: servedRunning, QueueDepth: servedQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pl.Close()
		return err
	}
	srv := &http.Server{Handler: pl.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	p.setup = time.Since(t)
	defer func() {
		pl.Close()
		if cerr := srv.Shutdown(context.Background()); cerr != nil && err == nil {
			err = cerr
		}
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}()

	url := "http://" + ln.Addr().String() + "/api/jobs"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}}
	defer client.CloseIdleConnections()
	p.jobs = make([]*job, len(w.order))
	errs := make([]error, len(w.order))
	forEach(len(w.order), servedClients, func(i int) {
		j := &job{index: i, label: w.order[i]}
		p.jobs[i] = j
		errs[i] = w.submitAndWait(client, url, pl, j)
	})
	return firstErr(errs)
}

// submitAndWait submits one job over HTTP and blocks until it is terminal.
// A refused submit or a job that does not finish is the job's failure; a
// transport error ends the run.
func (w *servedMix) submitAndWait(client *http.Client, url string, pl *controlplane.Plane, j *job) error {
	t0 := time.Now()
	var st controlplane.JobStatus
	var code int
	var err error
	j.setup = j.time("controlplane.submit", func() { code, st, err = post(client, url, w.bodies[j.label]) })
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		j.latency = time.Since(t0)
		j.fail(fmt.Sprintf("submit answered %d", code))
		return nil
	}
	var done controlplane.JobStatus
	j.time("controlplane.poll_done", func() { done, err = pl.PollDone(st.ID, time.Minute) })
	j.latency = time.Since(t0)
	if err != nil {
		j.fail(err.Error())
		return nil
	}
	j.status = &done
	if done.StartedAt != nil && done.FinishedAt != nil {
		j.spans = append(j.spans,
			span{name: "controlplane.admission_wait", start: done.SubmittedAt, dur: done.StartedAt.Sub(done.SubmittedAt)},
			span{name: "cluster.execute", start: *done.StartedAt, dur: done.FinishedAt.Sub(*done.StartedAt)})
	}
	return nil
}

func post(client *http.Client, url string, body []byte) (int, controlplane.JobStatus, error) {
	var st controlplane.JobStatus
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st, err
}

// verify runs each preset once in batch on the serial engine — the plane
// pins served jobs to one shard — and requires every served job to report
// the same simulated outputs. A batch twin that breaks an SLO, a drift
// limit or a lineage invariant fails all of its served jobs.
func (w *servedMix) verify(passes []*pass) error {
	type ref struct {
		res    cluster.Result
		events uint64
		fabric float64
	}
	refs := make(map[string]ref)
	for id, sc := range w.scenarios {
		cfg, err := cluster.FromScenario(sc)
		if err != nil {
			return err
		}
		cfg.Shards = 1
		res, c, err := cluster.Run(cfg)
		if err != nil {
			return fmt.Errorf("batch %s: %w", id, err)
		}
		refs[id] = ref{res: res, events: c.EventsFired(), fabric: c.CkptFabricBytes()}
	}
	for _, p := range passes {
		for _, j := range p.jobs {
			if j.failure != "" {
				continue
			}
			r := refs[j.label]
			if msg := servedMismatch(j.status, r.res); msg != "" {
				j.fail(msg)
				continue
			}
			j.res, j.events, j.fabricBytes = r.res, r.events, r.fabric
		}
	}
	return nil
}

// servedMismatch compares a served job's status with its batch twin.
func servedMismatch(st *controlplane.JobStatus, b cluster.Result) string {
	if st.State != controlplane.StateDone {
		return fmt.Sprintf("state %s: %s", st.State, st.Reason)
	}
	s := st.Result
	if s == nil {
		return "done without a result"
	}
	switch {
	case s.WorkloadChecksum != fmt.Sprintf("%016x", b.WorkloadChecksum):
		return fmt.Sprintf("checksum %s, batch %016x", s.WorkloadChecksum, b.WorkloadChecksum)
	case s.ExecTimeUS != b.ExecTime.Microseconds():
		return fmt.Sprintf("exec time %d us, batch %d us", s.ExecTimeUS, b.ExecTime.Microseconds())
	case s.LocalCkpts != b.LocalCkpts || s.RemoteCkpts != b.RemoteCkpts:
		return fmt.Sprintf("checkpoints %d/%d, batch %d/%d", s.LocalCkpts, s.RemoteCkpts, b.LocalCkpts, b.RemoteCkpts)
	case s.RecoveryLost != b.RecoveryLost || s.Restores != b.Restores:
		return fmt.Sprintf("lost/restores %d/%d, batch %d/%d", s.RecoveryLost, s.Restores, b.RecoveryLost, b.Restores)
	case s.PeakWindowBytes != b.PeakCkptWindowBytes:
		return fmt.Sprintf("peak window %v B, batch %v B", s.PeakWindowBytes, b.PeakCkptWindowBytes)
	case b.SLOViolations != 0 || b.DriftViolations != 0 || b.LineageViolations != 0:
		return fmt.Sprintf("batch twin violations: slo %d, drift %d, lineage %d",
			b.SLOViolations, b.DriftViolations, b.LineageViolations)
	}
	return ""
}
