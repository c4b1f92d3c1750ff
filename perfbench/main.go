// Command perfbench measures the simulator's own host-time cost on three
// workloads and checks that every result it produced is correct.
//
//	perfbench --workload closed-exhibits|open-mail|crash-sweep \
//	    --seed N --seconds S --trace 0|1
//
// It runs from the root of the simulator's source tree, whose golden files
// it reads. It repeats the workload's fixed work for about S seconds (at least
// twice), setting up afresh each time, and prints as its last line a JSON
// object with the correctness verdict, the operations attempted and
// failed, and the metrics: the end-to-end ones with --trace 0, the
// per-layer ones with --trace 1. A traced run alternates untraced and
// traced repetitions; the traced ones record spans around the
// benchmark's calls into the simulator and a CPU profile of the timed
// part, and write both under .bench_build. Run it through run.sh, which
// builds it. README.md says what each workload and metric is for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// job is one workload. Each repetition calls setup (timed as setup_s),
// run (timed as cpu_s), then teardown (untimed). The spans a traced
// repetition records go under root.
type job interface {
	setup(tr *tracer, root int) error
	run(tr *tracer, root int) *repResult
	teardown(tr *tracer, root int)
	// verify checks the first repetition's transcript against an
	// independent path, once per process, untimed.
	verify(out []byte) []string
	// layers adds to m the per-layer metrics of one traced repetition,
	// given its span seconds by name; m already holds its counts.
	layers(sums, m map[string]float64)
}

// repResult is what one repetition produced.
type repResult struct {
	out       []byte // deterministic transcript; identical across repetitions
	attempted int
	failed    int
	problems  []string           // failed checks
	counts    map[string]float64 // deterministic per-layer counts
}

// minReps repetitions always run, so every run compares two transcripts.
const minReps = 2

func main() {
	name := flag.String("workload", "", "closed-exhibits, open-mail or crash-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating the workload for")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newJob(name, root string, seed int64) (job, error) {
	switch name {
	case "closed-exhibits":
		return newClosedExhibits(root)
	case "open-mail":
		return newOpenMail(root, seed)
	case "crash-sweep":
		return &crashSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (closed-exhibits|open-mail|crash-sweep)", name)
}

// measurement accumulates the repetitions of one run. Times are host CPU
// seconds of the whole process unless named wall.
type measurement struct {
	setup, cpu, wall, rate []float64 // untraced repetitions
	tracedCPU              []float64
	attempted, failed      int
	problems               []string
	first                  []byte               // first repetition's transcript
	layers                 []map[string]float64 // per traced repetition
	shares                 *cpuShares
}

// traceDir receives the traced runs' span files; run.sh builds there too.
const traceDir = ".bench_build"

func run(name string, seed int64, seconds int, traced bool) error {
	j, err := newJob(name, ".", seed)
	if err != nil {
		return err
	}
	st, err := newStamp(name, seed, seconds, traced, ".")
	if err != nil {
		return err
	}
	m := &measurement{shares: newCPUShares()}
	var spans []*tracer
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
			spans = append(spans, tr)
		}
		if err := m.repeat(j, tr); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	m.problems = append(m.problems, j.verify(m.first)...)
	st.Reps, st.TracedReps = len(m.cpu), len(m.tracedCPU)
	if traced {
		if err := writeTrace(traceDir, name, seed, st, spans, m.shares); err != nil {
			return err
		}
	}
	metrics, err := m.metrics(traced)
	if err != nil {
		return err
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stampLine)
	line, err := json.Marshal(result{
		Correct:   len(m.problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// repeat runs one repetition: untraced when tr is nil, otherwise with
// spans and the CPU profiler on the timed part.
func (m *measurement) repeat(j job, tr *tracer) error {
	// Every repetition starts as a fresh process would: heap collected,
	// freed memory returned to the OS, no background scavenging left to
	// charge to the timed parts.
	debug.FreeOSMemory()
	root := tr.begin("setup", 0)
	c0 := cpuTime()
	if err := j.setup(tr, root); err != nil {
		return err
	}
	setup := cpuTime() - c0
	tr.end(root)

	var before, after runtime.MemStats
	var prof bytes.Buffer
	if tr != nil {
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	root = tr.begin("run", 0)
	c1, t1 := cpuTime(), time.Now()
	r := j.run(tr, root)
	wall, cpu := time.Since(t1), cpuTime()-c1
	tr.end(root)
	if tr != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
	}
	root = tr.begin("teardown", 0)
	j.teardown(tr, root)
	tr.end(root)

	m.attempted += r.attempted
	m.failed += r.failed
	m.problems = append(m.problems, r.problems...)
	if m.first == nil {
		m.first = r.out
	} else if !bytes.Equal(r.out, m.first) {
		m.failed += r.attempted - r.failed
		m.problems = append(m.problems, fmt.Sprintf("transcript of a repetition (traced: %t) differs from the first, untraced one", tr != nil))
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced=%t setup %.4fs cpu, run %.4fs cpu %.4fs wall, %d/%d failed\n",
		tr != nil, setup.Seconds(), cpu.Seconds(), wall.Seconds(), r.failed, r.attempted)
	if tr == nil {
		m.setup = append(m.setup, setup.Seconds())
		m.cpu = append(m.cpu, cpu.Seconds())
		m.wall = append(m.wall, wall.Seconds())
		m.rate = append(m.rate, float64(r.attempted)/cpu.Seconds())
		return nil
	}
	m.tracedCPU = append(m.tracedCPU, cpu.Seconds())
	if err := tr.checkNesting(); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	m.shares.add(samples)
	l := map[string]float64{
		"runtime.alloc_mb":   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"runtime.mallocs":    float64(after.Mallocs - before.Mallocs),
		"runtime.gc_cycles":  float64(after.NumGC - before.NumGC),
		"runtime.gc_pause_s": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
	}
	for k, v := range r.counts {
		l[k] = v
	}
	j.layers(tr.sums(), l)
	m.layers = append(m.layers, l)
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []metricSpec{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ops_per_s", "1/s"},
}

type metricSpec struct{ name, unit string }

// perLayer lists the metrics of a traced run, with their units. Every
// workload reports all of them; a layer a workload does not reach reads 0.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, l := range cpuLayers {
		out = append(out, metricSpec{"cpu." + l, "fraction"})
	}
	for _, k := range leafKinds {
		out = append(out, metricSpec{"leaf." + k, "fraction"})
	}
	out = append(out, metricSpec{"harness.cells", "count"}, metricSpec{"harness.memo_hits", "count"})
	for _, k := range cellKinds {
		out = append(out, metricSpec{"harness.cell_s." + k, "s"})
	}
	for _, e := range exhibitNames {
		out = append(out, metricSpec{"harness.exhibit_s." + e, "s"})
	}
	out = append(out,
		metricSpec{"fsim.new_s", "s"}, metricSpec{"fsim.run_s", "s"}, metricSpec{"fsim.shutdown_s", "s"},
		metricSpec{"sim.events", "count"}, metricSpec{"sim.ns_per_event", "ns"},
		metricSpec{"dev.requests", "count"}, metricSpec{"dev.ordering_stalls", "count"},
		metricSpec{"cache.hits", "count"}, metricSpec{"cache.misses", "count"},
		metricSpec{"cache.sync_writes", "count"}, metricSpec{"cache.delayed_writes", "count"},
		metricSpec{"scenario.issued", "count"}, metricSpec{"scenario.completed", "count"},
		metricSpec{"scenario.dropped", "count"}, metricSpec{"scenario.soft_errs", "count"},
		metricSpec{"crashmc.record_s", "s"})
	for _, s := range schemeNames {
		out = append(out, metricSpec{"crashmc.explore_s." + s.name, "s"})
	}
	return append(out,
		metricSpec{"crashmc.explored", "count"}, metricSpec{"crashmc.deduped", "count"},
		metricSpec{"crashmc.checked", "count"}, metricSpec{"crashmc.baseline_builds", "count"},
		metricSpec{"runtime.alloc_mb", "MiB"}, metricSpec{"runtime.mallocs", "count"},
		metricSpec{"runtime.gc_cycles", "count"}, metricSpec{"runtime.gc_pause_s", "s"},
		metricSpec{"bench.wall_s", "s"}, metricSpec{"bench.trace_overhead", "fraction"})
}

// metrics reports the run: medians over the untraced repetitions for the
// end-to-end metrics, medians over the traced ones per layer.
func (m *measurement) metrics(traced bool) (map[string]metric, error) {
	values := map[string]float64{}
	specs := endToEnd
	if !traced {
		values["cpu_s"] = median(m.cpu)
		values["setup_s"] = median(m.setup)
		values["peak_rss_mb"] = peakRSSMiB()
		values["ops_per_s"] = median(m.rate)
	} else {
		specs = perLayer()
		for _, l := range m.layers {
			for k := range l {
				if _, ok := values[k]; !ok {
					values[k] = median(column(m.layers, k))
				}
			}
		}
		if err := m.shares.metrics(values); err != nil {
			return nil, err
		}
		if u := m.shares.unknownPackages(); len(u) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: packages with no layer, charged to their callers: %v\n", u)
		}
		values["bench.wall_s"] = median(m.wall)
		values["bench.trace_overhead"] = median(m.tracedCPU)/median(m.cpu) - 1
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

func column(rows []map[string]float64, k string) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[k]
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the CPU time the process has used so far, in all threads,
// user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace writes the traced repetitions' spans and the bucketed CPU
// profile, stamped with the run's parameters.
func writeTrace(dir, name string, seed int64, st *stamp, spans []*tracer, cpu *cpuShares) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Stamp   *stamp           `json:"stamp"`
		Samples int64            `json:"cpu_samples"`
		Layers  map[string]int64 `json:"cpu_layer_samples"`
		Leaves  map[string]int64 `json:"cpu_leaf_samples"`
		Reps    [][]span         `json:"spans"`
	}{Stamp: st, Samples: cpu.total, Layers: cpu.layer, Leaves: cpu.leaf}
	for _, tr := range spans {
		doc.Reps = append(doc.Reps, tr.spans)
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return nil
}
