package main

import (
	"fmt"
	"math/rand"
	"time"

	"nvmcp/internal/scenario"
)

// paper-fig9 is the paper's Figure 9 grid at paper scale: GTC on 4 nodes ×
// 12 cores with DCPCP local pre-copy, NVM bandwidth × remote interval K, and
// per cell an ideal run (no checkpoint), a burst remote run and a pre-copy
// remote run — 27 serial-engine jobs on two workers. The seed permutes the
// order the jobs are handed to the workers; the grid itself is the paper's.

// fig9Variant is one of a cell's three jobs.
type fig9Variant int

const (
	fig9Ideal fig9Variant = iota
	fig9Burst
	fig9Precopy
)

var fig9Labels = [...]string{"ideal", "burst", "precopy"}

// fig9Workers is the grid's host parallelism: the core count of the host
// the benchmark was sized on, fixed so results stay comparable across hosts.
const fig9Workers = 2

type fig9Job struct {
	cell    int
	variant fig9Variant
}

type fig9 struct {
	scale scenario.Scale
	bws   []float64
	ks    []int
	order []fig9Job
	pins  fig9Pins
}

func newFig9(o options) *fig9 {
	w := &fig9{
		scale: scenario.ScalePaper,
		bws:   []float64{400e6, 800e6, 1600e6},
		ks:    []int{1, 2, 4},
		pins:  fig9PaperPins,
	}
	if o.size == small {
		w.scale, w.bws, w.ks, w.pins = scenario.ScaleQuick, []float64{400e6, 1600e6}, []int{1, 3}, fig9QuickPins
	}
	cells := len(w.bws) * len(w.ks)
	rng := rand.New(rand.NewSource(o.seed))
	for _, i := range rng.Perm(cells * 3) {
		w.order = append(w.order, fig9Job{cell: i / 3, variant: fig9Variant(i % 3)})
	}
	return w
}

// scenario builds one job's scenario the way experiments.RunFig9 configures
// the same cell, so the results must equal that experiment's.
func (w *fig9) scenario(fj fig9Job) *scenario.Scenario {
	bw, k := w.bws[fj.cell/len(w.ks)], w.ks[fj.cell%len(w.ks)]
	sc := scenario.Base("gtc", w.scale, bw)
	sc.Name = fmt.Sprintf("fig9-%s-bw%.0f-k%d", fig9Labels[fj.variant], bw/1e6, k)
	if k > sc.Iterations {
		sc.Iterations = k
	}
	sc.LinkBW = 250e6
	if w.scale == scenario.ScalePaper {
		sc.LinkBW = 1e9
	}
	sc.Shards = 1
	switch fj.variant {
	case fig9Ideal:
		sc.NoCheckpoint = true
		sc.Local.Policy = "none"
	case fig9Burst:
		sc.Local.Policy = "dcpcp"
		sc.Remote = scenario.RemoteSpec{Policy: "buddy-burst", Every: k}
	case fig9Precopy:
		sc.Local.Policy = "dcpcp"
		sc.Remote = scenario.RemoteSpec{Policy: "buddy-precopy", AutoRateCap: true, Every: k}
	}
	return sc
}

func (w *fig9) pass(p *pass) error {
	p.jobs = make([]*job, len(w.order))
	errs := make([]error, len(w.order))
	forEach(len(w.order), fig9Workers, func(i int) {
		fj := w.order[i]
		j := &job{index: i, label: fig9Labels[fj.variant]}
		p.jobs[i] = j
		errs[i] = runBatch(j, func() *scenario.Scenario { return w.scenario(fj) }, nil)
	})
	return firstErr(errs)
}

// verify checks each job's virtual execution time against the pinned
// experiments.RunFig9 result for its cell, and each pass's grid-average
// overheads against the pinned averages.
func (w *fig9) verify(passes []*pass) error {
	cells := len(w.bws) * len(w.ks)
	for _, p := range passes {
		exec := make([][3]time.Duration, cells)
		for i, j := range p.jobs {
			fj := w.order[i]
			want := w.pins.exec[fj.cell][fj.variant]
			if j.res.ExecTime != want {
				j.fail(fmt.Sprintf("cell %d: exec time %d ns, experiments.RunFig9 gives %d ns",
					fj.cell, int64(j.res.ExecTime), int64(want)))
			}
			exec[fj.cell][fj.variant] = j.res.ExecTime
		}
		// Same summation order as experiments.RunFig9, so equal inputs
		// give bit-equal averages.
		var sumBurst, sumPre float64
		for _, e := range exec {
			sumBurst += overhead(e[fig9Burst], e[fig9Ideal])
			sumPre += overhead(e[fig9Precopy], e[fig9Ideal])
		}
		avgBurst, avgPre := sumBurst/float64(cells), sumPre/float64(cells)
		if avgBurst != w.pins.avgBurst || avgPre != w.pins.avgPrecopy {
			msg := fmt.Sprintf("grid averages burst %v, pre-copy %v; experiments.RunFig9 gives %v, %v",
				avgBurst, avgPre, w.pins.avgBurst, w.pins.avgPrecopy)
			for _, j := range p.jobs {
				j.fail(msg)
			}
		}
	}
	return nil
}

func overhead(actual, ideal time.Duration) float64 {
	return float64(actual-ideal) / float64(ideal)
}

// fig9Pins are experiments.RunFig9(workload.GTC(), scale) on this tree:
// per cell (bandwidth-major, then K) the ideal, burst and pre-copy virtual
// execution times, and the grid-average burst and pre-copy overheads.
// TestFig9PinsMatchExperiments re-derives them.
type fig9Pins struct {
	exec       [][3]time.Duration
	avgBurst   float64
	avgPrecopy float64
}

var fig9PaperPins = fig9Pins{
	exec: [][3]time.Duration{
		{163221642437, 188047888474, 165480528516},
		{163221642437, 173876417266, 164962236598},
		{163221642437, 164362464836, 164578148766},
		{163221642437, 175252423104, 164662397373},
		{163221642437, 164454864583, 164021280174},
		{163221642437, 163404371050, 163620110136},
		{163221642437, 184151469774, 164672759923},
		{163221642437, 166574159385, 164048407049},
		{163221642437, 163404371050, 163629527757},
	},
	avgBurst:   0.05073785727878742,
	avgPrecopy: 0.007270695914212673,
}

var fig9QuickPins = fig9Pins{
	exec: [][3]time.Duration{
		{32241585500, 33381266276, 33665924501},
		{32241585500, 32506561964, 32784728082},
		{32241585500, 37250896036, 33247330878},
		{32241585500, 32309956303, 32586644898},
	},
	avgBurst:   0.05026380122497388,
	avgPrecopy: 0.025729863370087678,
}
