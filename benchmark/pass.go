package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/controlplane"
	"nvmcp/internal/scenario"
)

// pass is one run of every job of a workload.
type pass struct {
	index  int
	traced bool
	start  time.Time
	wall   time.Duration
	// setup is per-pass harness set-up outside any job (the served plane
	// and its HTTP server).
	setup time.Duration
	jobs  []*job
	rt    runtimeDelta
}

// job is one simulation run and what the benchmark measured around it.
type job struct {
	index int
	label string
	spans []span
	// setup is host time spent before the job's first simulated event:
	// scenario build, lowering and cluster construction (or, when served,
	// the submit up to its 202).
	setup time.Duration
	// latency is Execute for batch jobs and submit→done when served.
	latency time.Duration
	// res holds the job's simulated result. Served jobs expose only a
	// subset over the API; verify attaches their batch twin's full result
	// once the subset matched.
	res         cluster.Result
	events      uint64
	fabricBytes float64
	status      *controlplane.JobStatus
	failure     string
}

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	name  string
	start time.Time
	dur   time.Duration
}

// time runs fn as a span named name and returns its duration.
func (j *job) time(name string, fn func()) time.Duration {
	t := time.Now()
	fn()
	d := time.Since(t)
	j.spans = append(j.spans, span{name: name, start: t, dur: d})
	return d
}

// fail records the job's first oracle miss.
func (j *job) fail(msg string) {
	if j.failure == "" {
		j.failure = msg
	}
}

// forEach runs fn(i) for i in [0, n) on at most k goroutines and waits.
func forEach(n, k int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < k && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runPass runs one pass; a traced pass also takes a CPU profile and the Go
// runtime's metric deltas around it.
func runPass(w workload, p *pass, prof *profile) error {
	var before runtimeSample
	if p.traced {
		before = readRuntime()
		if err := prof.start(); err != nil {
			return err
		}
	}
	p.start = time.Now()
	err := w.pass(p)
	p.wall = time.Since(p.start)
	if p.traced {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
		p.rt = readRuntime().sub(before)
	}
	return err
}

// setupRepeats is how many times runBatch sets a job up. A job's set-up
// takes well under a millisecond while the other worker executes, so one
// reading is mostly scheduler noise; the median of three is the job's
// set-up time. Construction starts no simulated process, so the clusters
// not executed are dropped without effect.
const setupRepeats = 3

// runBatch sets one batch job up (scenario build and Validate, lowering,
// cluster construction) and executes it, timing each call as a span. tune
// adjusts the lowered config (shards, checkers). Errors from setting the job
// up are returned; an Execute error is the job's failure.
func runBatch(j *job, build func() *scenario.Scenario, tune func(*cluster.Config)) error {
	type setup struct {
		spans []span
		total time.Duration
		c     *cluster.Cluster
	}
	reps := make([]setup, setupRepeats)
	for r := range reps {
		spans, c, err := setupBatch(build, tune)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		reps[r] = setup{spans: spans, c: c}
		for _, s := range spans {
			reps[r].total += s.dur
		}
	}
	sort.Slice(reps, func(a, b int) bool { return reps[a].total < reps[b].total })
	mid := reps[len(reps)/2]
	j.spans = append(j.spans, mid.spans...)
	j.setup = mid.total

	var err error
	j.latency = j.time("cluster.execute", func() { j.res, err = mid.c.Execute() })
	j.events, j.fabricBytes = mid.c.EventsFired(), mid.c.CkptFabricBytes()
	if err != nil {
		j.fail("execute: " + err.Error())
	}
	return nil
}

func setupBatch(build func() *scenario.Scenario, tune func(*cluster.Config)) ([]span, *cluster.Cluster, error) {
	var (
		t   job
		sc  *scenario.Scenario
		cfg cluster.Config
		c   *cluster.Cluster
		err error
	)
	t.time("scenario.build", func() {
		sc = build()
		err = sc.Validate()
	})
	if err != nil {
		return nil, nil, err
	}
	t.time("cluster.lower", func() { cfg, err = cluster.FromScenario(sc) })
	if err != nil {
		return nil, nil, err
	}
	if tune != nil {
		tune(&cfg)
	}
	t.time("cluster.new", func() { c, err = cluster.New(cfg) })
	return t.spans, c, err
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
