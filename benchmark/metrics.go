package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// endToEnd computes the metrics a user of the system sees, from untraced
// passes. Host timings are taken per pass (job latency percentiles within
// the pass), reported as the median over passes and rescaled by hostScale
// (see calibrate.go); simulated outputs are means over one pass's jobs,
// which every pass repeats exactly.
func endToEnd(passes []*pass, harness time.Duration, hostScale float64, attempted, failed int) (map[string]metric, error) {
	var setups, walls []float64
	var total time.Duration
	jobs := 0
	for _, p := range passes {
		s := p.setup
		for _, j := range p.jobs {
			s += j.setup
		}
		setups = append(setups, (harness + s).Seconds())
		walls = append(walls, p.wall.Seconds())
		total += p.wall
		jobs += len(p.jobs)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sim := simulated(passes[0].jobs)
	var p50s, p90s []float64
	for _, p := range passes {
		lat := latencies(p)
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
	}
	return map[string]metric{
		"setup_s":             {median(setups) * hostScale, "s"},
		"wall_s":              {median(walls) * hostScale, "s"},
		"jobs_per_s":          {float64(jobs) / total.Seconds() / hostScale, "1/s"},
		"job_p50_ms":          {median(p50s) * hostScale, "ms"},
		"job_p90_ms":          {median(p90s) * hostScale, "ms"},
		"peak_rss_mb":         {rss, "MB"},
		"ok_frac":             {1 - float64(failed)/float64(attempted), "frac"},
		"virtual_exec_s":      {sim.virtualExecS, "sim_s"},
		"peak_ckpt_window_mb": {sim.peakWindowMB, "MB"},
		"ckpt_block_frac":     {sim.blockFrac, "frac"},
		"precopy_hit_rate":    {sim.hitRate, "frac"},
	}, nil
}

// latencies returns a pass's job latencies in milliseconds.
func latencies(p *pass) []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = float64(j.latency) / float64(time.Millisecond)
	}
	return out
}

// simOutputs are one pass's simulated outputs, which a change to host
// performance alone must leave identical.
type simOutputs struct {
	virtualExecS float64 // mean virtual execution time per job
	peakWindowMB float64 // largest Figure 10 checkpoint window of any job
	blockFrac    float64 // mean CkptTimePerRank/ExecTime over checkpointing jobs
	hitRate      float64 // mean pre-copy hit rate over checkpointing jobs
}

func simulated(jobs []*job) simOutputs {
	var o simOutputs
	var ckpt int
	for _, j := range jobs {
		r := j.res
		o.virtualExecS += r.ExecTime.Seconds() / float64(len(jobs))
		o.peakWindowMB = max(o.peakWindowMB, r.PeakCkptWindowBytes/1e6)
		if r.LocalCkpts > 0 && r.ExecTime > 0 {
			ckpt++
			o.blockFrac += float64(r.CkptTimePerRank) / float64(r.ExecTime)
			o.hitRate += r.PreCopyHitRate
		}
	}
	if ckpt > 0 {
		o.blockFrac /= float64(ckpt)
		o.hitRate /= float64(ckpt)
	}
	return o
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// jobLabels are every workload's job labels, for cluster.execute_s.<label>.
var jobLabels = []string{"ideal", "burst", "precopy", "twin", "outage", "quick", "faults", "slo-paper"}

// perLayer computes the per-layer metrics. Host times and runtime deltas
// come from traced passes only (median over them); simulated counts are
// per pass and repeat exactly in every pass.
func perLayer(passes []*pass, prof *profile) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var traced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		}
	}
	perPass := func(f func(p *pass) float64) float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	spanSum := func(p *pass, name, label string) time.Duration {
		var d time.Duration
		for _, j := range p.jobs {
			if label != "" && j.label != label {
				continue
			}
			for _, s := range j.spans {
				if s.name == name {
					d += s.dur
				}
			}
		}
		return d
	}
	for _, name := range []string{"scenario.build", "cluster.lower", "cluster.new", "cluster.execute"} {
		set(name+"_s", perPass(func(p *pass) float64 { return spanSum(p, name, "").Seconds() }), "s")
	}
	for _, l := range jobLabels {
		set("cluster.execute_s."+l, perPass(func(p *pass) float64 {
			return spanSum(p, "cluster.execute", l).Seconds()
		}), "s")
	}

	jobs := passes[0].jobs
	var events uint64
	for _, j := range jobs {
		events += j.events
	}
	set("sim.events", float64(events), "count")
	set("sim.host_ns_per_event", perPass(func(p *pass) float64 {
		return float64(spanSum(p, "cluster.execute", "").Nanoseconds()) / float64(events)
	}), "ns")

	set("runtime.sched_latency_p50_us", perPass(func(p *pass) float64 { return p.rt.schedP50S * 1e6 }), "us")
	set("runtime.alloc_mb", perPass(func(p *pass) float64 { return float64(p.rt.allocBytes) / 1e6 }), "MB")
	set("runtime.mallocs", perPass(func(p *pass) float64 { return float64(p.rt.mallocs) }), "count")
	set("runtime.gc_cpu_frac", perPass(func(p *pass) float64 { return p.rt.gcCPUFrac }), "frac")
	set("runtime.mutex_wait_s", perPass(func(p *pass) float64 { return p.rt.mutexWaitS }), "s")

	layerCounts(jobs, set)

	// Plane latencies, over every served job of the traced passes.
	servedP50 := func(name string) float64 {
		var xs []float64
		for _, p := range traced {
			for _, j := range p.jobs {
				if j.status == nil {
					continue
				}
				for _, s := range j.spans {
					if s.name == name {
						xs = append(xs, float64(s.dur)/float64(time.Millisecond))
					}
				}
			}
		}
		return median(xs)
	}
	set("controlplane.submit_ms_p50", servedP50("controlplane.submit"), "ms")
	set("controlplane.admission_wait_ms_p50", servedP50("controlplane.admission_wait"), "ms")
	set("controlplane.run_ms_p50", servedP50("cluster.execute"), "ms")

	var total int64
	for _, v := range prof.nanos {
		total += v
	}
	for _, l := range layers {
		frac := 0.0
		if total > 0 {
			frac = float64(prof.nanos[l]) / float64(total)
		}
		set("cpu_frac."+l, frac, "frac")
	}
	set("trace.cpu_samples", float64(prof.samples), "count")

	// Overhead of tracing: each traced pass against the untraced pass just
	// before it, median of the pair ratios.
	var ratios []float64
	for i := 1; i < len(passes); i++ {
		if passes[i].traced && !passes[i-1].traced {
			ratios = append(ratios, passes[i].wall.Seconds()/passes[i-1].wall.Seconds())
		}
	}
	set("trace.overhead_frac", median(ratios)-1, "frac")
	return m
}

// layerCounts sets the simulated per-layer counts of one pass.
func layerCounts(jobs []*job, set func(string, float64, string)) {
	var (
		precopyB, ckptB, bottomB, fabricB                  float64
		remoteCkpts, retries, failovers, injected, skipped float64
		recLocal, recRemote, recBottom, recLost, replans   float64
		lineageV, sloV, driftV                             float64
		redirty, helper, mttr                              float64
		nRedirty, nHelper, nMTTR                           int
	)
	for _, j := range jobs {
		r := j.res
		precopyB += float64(r.PreCopyBytes)
		ckptB += float64(r.CkptBytes)
		bottomB += float64(r.BottomBytes)
		fabricB += j.fabricBytes
		remoteCkpts += float64(r.RemoteCkpts)
		retries += float64(r.ShipRetries)
		failovers += float64(r.BuddyFailovers)
		injected += float64(r.FailuresInjected)
		skipped += float64(r.FailuresSkipped)
		recLocal += float64(r.RecoveryLocal)
		recRemote += float64(r.RecoveryRemote)
		recBottom += float64(r.RecoveryBottom)
		recLost += float64(r.RecoveryLost)
		replans += float64(r.Replans)
		lineageV += float64(r.LineageViolations)
		sloV += float64(r.SLOViolations)
		driftV += float64(r.DriftViolations)
		if r.PreCopyBytes > 0 {
			redirty += r.ReDirtyRate
			nRedirty++
		}
		if len(r.HelperUtil) > 0 {
			var u float64
			for _, h := range r.HelperUtil {
				u += h
			}
			helper += u / float64(len(r.HelperUtil))
			nHelper++
		}
		if r.FailuresInjected > 0 {
			mttr += r.MTTR.Seconds()
			nMTTR++
		}
	}
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	set("core.precopy_mb", precopyB/1e6, "MB")
	set("core.ckpt_mb", ckptB/1e6, "MB")
	set("precopy.redirty_rate", mean(redirty, nRedirty), "frac")
	set("remote.ckpts", remoteCkpts, "count")
	set("remote.ship_retries", retries, "count")
	set("remote.buddy_failovers", failovers, "count")
	set("remote.helper_util", mean(helper, nHelper), "frac")
	set("interconnect.ckpt_fabric_mb", fabricB/1e6, "MB")
	set("fault.injected", injected, "count")
	set("fault.skipped", skipped, "count")
	set("fault.mttr_s", mean(mttr, nMTTR), "sim_s")
	set("cluster.recovery_local", recLocal, "count")
	set("cluster.recovery_remote", recRemote, "count")
	set("cluster.recovery_bottom", recBottom, "count")
	set("cluster.recovery_lost", recLost, "count")
	set("policy.replans", replans, "count")
	set("pfs.bottom_mb", bottomB/1e6, "MB")
	set("lineage.violations", lineageV, "count")
	set("slo.violations", sloV, "count")
	set("drift.violations", driftV, "count")
}
