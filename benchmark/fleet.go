package main

import (
	"fmt"

	"nvmcp/internal/cluster"
	"nvmcp/internal/experiments"
	"nvmcp/internal/lineage"
	"nvmcp/internal/scenario"
)

// fleet-chaos is a generated heterogeneous fleet in the
// experiments.FleetChaosScenario shape, with the fleet generator and fault
// seeds drawn from the benchmark seed. Each pass runs two jobs one after the
// other, so at most two host threads are busy:
//
//   - twin: the fault-free fleet on the sharded engine at a fixed 2 shards;
//   - outage: a zone outage under spread placement with buddy replan, on the
//     serial engine, with the strict lineage invariant checker on.
type fleetChaos struct {
	nodes     int
	fleetSeed int64
	faultSeed int64
}

// twinShards is pinned, not auto: the sharded checksum folds per-shard sums,
// so it is only comparable at one shard count.
const twinShards = 2

func newFleetChaos(o options) *fleetChaos {
	w := &fleetChaos{nodes: 250, fleetSeed: o.fleetSeed, faultSeed: o.faultSeed}
	if o.size == small {
		w.nodes = 48
	}
	return w
}

// scenario generates the fleet for a severity ("none" or "zone").
func (w *fleetChaos) scenario(severity string) *scenario.Scenario {
	sc := experiments.FleetChaosScenario(w.nodes, experiments.Quick, "spread", severity)
	sc.Fleet.Seed = w.fleetSeed
	sc.FaultSeed = w.faultSeed
	if severity != "none" {
		sc.Remote.Replan = true
	}
	return sc
}

func (w *fleetChaos) pass(p *pass) error {
	twin := &job{index: 0, label: "twin"}
	outage := &job{index: 1, label: "outage"}
	p.jobs = []*job{twin, outage}
	err := runBatch(twin, func() *scenario.Scenario { return w.scenario("none") }, func(cfg *cluster.Config) {
		cfg.Shards = twinShards
	})
	if err != nil {
		return err
	}
	return runBatch(outage, func() *scenario.Scenario { return w.scenario("zone") }, func(cfg *cluster.Config) {
		cfg.Shards = 1
		cfg.Lineage = &lineage.Config{Enabled: true, Strict: true}
	})
}

// verify runs the serial fault-free fleet as the reference. The outage must
// recover every chunk, break no lineage invariant and end on the reference
// checksum. The sharded twin is compared only with itself: its checksum
// must repeat in every pass.
func (w *fleetChaos) verify(passes []*pass) error {
	cfg, err := cluster.FromScenario(w.scenario("none"))
	if err != nil {
		return err
	}
	cfg.Shards = 1
	ref, _, err := cluster.Run(cfg)
	if err != nil {
		return fmt.Errorf("serial fault-free reference: %w", err)
	}
	twinSum := passes[0].jobs[0].res.WorkloadChecksum
	for _, p := range passes {
		for _, j := range p.jobs {
			if j.res.RecoveryLost != 0 {
				j.fail(fmt.Sprintf("%d chunks lost", j.res.RecoveryLost))
			}
			if j.res.LineageViolations != 0 {
				j.fail(fmt.Sprintf("%d lineage violations", j.res.LineageViolations))
			}
			if j.res.Ranks != ref.Ranks {
				j.fail(fmt.Sprintf("%d ranks, reference has %d", j.res.Ranks, ref.Ranks))
			}
		}
		twin, outage := p.jobs[0], p.jobs[1]
		if twin.res.WorkloadChecksum != twinSum {
			twin.fail(fmt.Sprintf("checksum %016x differs from the first pass's %016x",
				twin.res.WorkloadChecksum, twinSum))
		}
		if outage.res.FailuresInjected == 0 {
			outage.fail("the zone outage did not fire")
		}
		if outage.res.WorkloadChecksum != ref.WorkloadChecksum {
			outage.fail(fmt.Sprintf("checksum %016x, serial fault-free reference %016x",
				outage.res.WorkloadChecksum, ref.WorkloadChecksum))
		}
	}
	return nil
}
