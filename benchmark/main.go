// Command benchmark is the repository benchmark: it runs one named workload
// against the public Go API of nvmcp, checks every job's outputs against an
// oracle, and prints the workload's metrics by name with their units.
//
//	bash benchmark/run.sh --workload paper-fig9 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and prints the per-layer metrics,
// including the traced passes' overhead. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named load. A constructor does the harness set-up
// (generating the scenarios from the seed); pass runs every job once.
type workload interface {
	// pass runs the workload's jobs once, recording each job into p.
	pass(p *pass) error
	// verify checks every recorded job against the workload's oracle,
	// after the measured phase, setting job.failure on a miss. It also
	// attaches reference results where the run itself exposes none.
	verify(passes []*pass) error
}

// size selects input sizes: full for the benchmark proper, small for the
// smoke test.
type size int

const (
	full size = iota
	small
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	fleetSeed int64
	faultSeed int64
	size      size
	spansDir  string
}

var workloadNames = []string{"paper-fig9", "fleet-chaos", "served-mix"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	res, err := measure(opts, start, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res.summary)
	out, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var sizeName string
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-fig9, fleet-chaos or served-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measure for at least this long (whole passes)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.Int64Var(&o.fleetSeed, "fleet-seed", 0, "fleet-chaos generator seed (0 = derived from -seed)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 0, "fault seed for fleet-chaos and served-mix (0 = derived from -seed)")
	fs.StringVar(&sizeName, "size", "full", "input sizes: full, or small for the smoke test")
	fs.StringVar(&o.spansDir, "spans-dir", "", "traced runs write their spans here as JSON lines")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	switch sizeName {
	case "full":
		o.size = full
	case "small":
		o.size = small
	default:
		return o, fmt.Errorf("unknown -size %q (valid: full, small)", sizeName)
	}
	switch trace {
	case 0, 1:
		o.trace = trace == 1
	default:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds must be >= 0, got %v", o.seconds)
	}
	// Derived seeds come from one generator so that -seed alone pins every
	// input; an explicit -fleet-seed or -fault-seed overrides its share.
	rng := rand.New(rand.NewSource(o.seed))
	fleet, fault := rng.Int63n(1<<31)+1, rng.Int63n(1<<31)+1
	if o.fleetSeed == 0 {
		o.fleetSeed = fleet
	}
	if o.faultSeed == 0 {
		o.faultSeed = fault
	}
	return o, nil
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "paper-fig9":
		return newFig9(o), nil
	case "fleet-chaos":
		return newFleetChaos(o), nil
	case "served-mix":
		return newServedMix(o)
	}
	return nil, fmt.Errorf("unknown -workload %q (valid: %v)", o.workload, workloadNames)
}

// result is what one benchmark run prints.
type result struct {
	summary string
	out     output
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs whole passes until the time budget is spent. A traced run
// alternates untraced and traced passes, so the overhead is a median of
// adjacent pairs rather than a difference of two separately timed blocks.
func measure(o options, start time.Time, stderr io.Writer) (result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return result{}, err
	}
	harness := time.Since(start)

	var passes []*pass
	var prof profile
	budget := time.Duration(o.seconds * float64(time.Second))
	measured := time.Now()
	var calibs []float64
	for i := 0; ; i++ {
		p := &pass{index: i, traced: o.trace && i%2 == 1}
		calibs = append(calibs, calibrate().Seconds())
		if err := runPass(w, p, &prof); err != nil {
			return result{}, fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		pairDone := !o.trace || p.traced
		if pairDone && time.Since(measured) >= budget {
			break
		}
	}
	calibs = append(calibs, calibrate().Seconds())
	hostScale := math.Sqrt(calibRef.Seconds() / median(calibs))
	if err := w.verify(passes); err != nil {
		return result{}, err
	}

	attempted, failed := 0, 0
	var firstFailure string
	for _, p := range passes {
		for _, j := range p.jobs {
			attempted++
			if j.failure != "" {
				failed++
				if firstFailure == "" {
					firstFailure = fmt.Sprintf("pass %d job %d (%s): %s", p.index, j.index, j.label, j.failure)
				}
			}
		}
	}
	if attempted == 0 {
		return result{}, errors.New("no jobs ran")
	}
	if firstFailure != "" {
		fmt.Fprintf(stderr, "benchmark: %d of %d jobs failed; first: %s\n", failed, attempted, firstFailure)
	}

	var metrics map[string]metric
	if o.trace {
		metrics = perLayer(passes, &prof)
		metrics["host.calib_ms"] = metric{median(calibs) * 1e3, "ms"}
		if o.spansDir != "" {
			if err := writeSpans(o, passes); err != nil {
				return result{}, err
			}
		}
	} else {
		metrics, err = endToEnd(passes, harness, hostScale, attempted, failed)
		if err != nil {
			return result{}, err
		}
	}
	perPass := len(passes[0].jobs)
	summary := fmt.Sprintf("%s seed=%d fleet-seed=%d fault-seed=%d: %d passes (%d traced), %d jobs, %d failed; job percentiles per pass over %d samples (%d beyond p90), median over passes; host calibration %.2f ms (host times scaled by %.4f)",
		o.workload, o.seed, o.fleetSeed, o.faultSeed, len(passes), tracedCount(passes),
		attempted, failed, perPass, beyond(perPass, 0.9), median(calibs)*1e3, hostScale)
	return result{
		summary: summary,
		out: output{
			Correct:   failed == 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics:   metrics,
		},
	}, nil
}

func tracedCount(passes []*pass) int {
	n := 0
	for _, p := range passes {
		if p.traced {
			n++
		}
	}
	return n
}

// writeSpans writes every span of the run as one JSON object per line.
func writeSpans(o options, passes []*pass) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range passes {
		for _, j := range p.jobs {
			for _, s := range j.spans {
				rec := spanRecord{
					Pass: p.index, Traced: p.traced, Job: j.index, Label: j.label,
					Name: s.name, Parent: "job", StartNS: s.start.Sub(p.start).Nanoseconds(),
					DurNS: s.dur.Nanoseconds(),
				}
				if err := enc.Encode(rec); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	return f.Close()
}

// spanRecord is one span as written to the spans file. Spans of one job
// share (pass, job); start is relative to the pass start.
type spanRecord struct {
	Pass    int    `json:"pass"`
	Traced  bool   `json:"traced"`
	Job     int    `json:"job"`
	Label   string `json:"label"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// beyond is how many of n samples lie strictly above the q-quantile.
func beyond(n int, q float64) int {
	return n - 1 - int(q*float64(n-1))
}
