package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// runtimeSample is the set of Go runtime metrics a traced pass reads before
// and after itself.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	mutexWait                float64
	sched                    *metrics.Float64Histogram
}

// runtimeDelta is what the runtime did during one traced pass.
type runtimeDelta struct {
	allocBytes, mallocs uint64
	gcCPUFrac           float64
	mutexWaitS          float64
	schedP50S           float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	for _, m := range s {
		if m.Value.Kind() == metrics.KindBad {
			continue // absent on this toolchain: its delta reads 0
		}
		switch m.Name {
		case "/gc/heap/allocs:bytes":
			r.allocBytes = m.Value.Uint64()
		case "/gc/heap/allocs:objects":
			r.allocObjects = m.Value.Uint64()
		case "/cpu/classes/gc/total:cpu-seconds":
			r.gcCPU = m.Value.Float64()
		case "/cpu/classes/total:cpu-seconds":
			r.totalCPU = m.Value.Float64()
		case "/sync/mutex/wait/total:seconds":
			r.mutexWait = m.Value.Float64()
		case "/sched/latencies:seconds":
			r.sched = m.Value.Float64Histogram()
		}
	}
	return r
}

func (r runtimeSample) sub(before runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes: r.allocBytes - before.allocBytes,
		mallocs:    r.allocObjects - before.allocObjects,
		mutexWaitS: r.mutexWait - before.mutexWait,
	}
	if cpu := r.totalCPU - before.totalCPU; cpu > 0 {
		d.gcCPUFrac = (r.gcCPU - before.gcCPU) / cpu
	}
	if r.sched != nil && before.sched != nil && len(r.sched.Counts) == len(before.sched.Counts) {
		counts := make([]uint64, len(r.sched.Counts))
		for i := range counts {
			counts[i] = r.sched.Counts[i] - before.sched.Counts[i]
		}
		d.schedP50S = histQuantile(counts, r.sched.Buckets, 0.5)
	}
	return d
}

// histQuantile returns the upper bound of the bucket holding the q-quantile
// of a runtime/metrics histogram (buckets has one more entry than counts).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}

// profile accumulates CPU samples over every traced pass, folded by layer.
type profile struct {
	buf     bytes.Buffer
	nanos   map[string]int64
	samples int64
}

func (p *profile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if p.nanos == nil {
		p.nanos = make(map[string]int64)
	}
	for _, s := range stacks {
		p.nanos[layerOf(s.funcs)] += s.value
		p.samples += s.count
	}
	return nil
}

// layers are the cpu_frac.<layer> names: the nvmcp/internal packages the
// workloads run, the runtime's gc and scheduler, and everything else.
var layers = []string{
	"sim", "core", "nvmkernel", "nvmalloc", "precopy", "remote", "resource",
	"interconnect", "obs", "lineage", "slo", "drift", "pfs", "cluster",
	"controlplane", "trace", "mem", "fault", "policy", "topo", "scenario",
	"workload", "gc", "sched", "other",
}

const modulePrefix = "nvmcp/internal/"

// layerOf folds one stack (innermost frame first) to a layer: the innermost
// nvmcp/internal package on it. A stack with no such frame is runtime work
// on no layer's behalf: gc for mark, sweep and scavenge roots, sched for
// the scheduler loop, other for anything else (the benchmark's own client,
// net/http, syscalls). Attributing leaves alone would charge most samples
// to the runtime, since the event engine's process switches run there.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, l := range layers {
				if l == mod {
					return mod
				}
			}
			return "other"
		}
	}
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.markroot"),
			fn == "runtime.bgsweep", fn == "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, fn := range funcs {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m", "runtime.goschedImpl":
			return "sched"
		}
	}
	return "other"
}

// stack is one profile sample: function names innermost first, the CPU
// nanoseconds it stands for, and its sample count.
type stack struct {
	funcs []string
	value int64
	count int64
}

// parseProfile decodes the parts of a gzipped pprof protobuf that folding
// needs: samples, locations (with inlined lines), functions and strings.
func parseProfile(data []byte) ([]stack, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("sample without count and cpu values")
		}
		st := stack{count: s.values[0], value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (data) or not (v).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
