// Command e2ebench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per process:
//
//	e2ebench --workload learn-dense --seed 1 --seconds 20 --trace 0
//
// and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// measured by wrapping calls into each package's public functions and
// replaying the kernels a learn runs. Inputs are generated from
// --seed before any clock starts; the program under test sees only the
// generated inputs. See README.md for the workloads and the rules that
// keep the numbers steady.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported number and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the numbers a user of the system sees; every workload
// reports every one of them (README.md says what each means per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"learn_cpu_s", "s"},
	{"f1", "ratio"},
	{"alloc_mb", "MB"},
	{"success_rate", "ratio"},
	{"tasks_per_cpu_s", "1/s"},
	{"queries_per_cpu_s", "1/s"},
}

// perLayer are the traced run's numbers, one or more per package.
var perLayer = []metricDef{
	{"csvio.ingest_s", "s"},
	{"csvio.ingest_mb_per_s", "MB/s"},
	{"constraint.spectral_vg_ms", "ms"},
	{"constraint.spectral_vg_allocs", "count"},
	{"constraint.spectral_sparse_vg_ms", "ms"},
	{"parallel.sparse_vg_speedup", "ratio"},
	{"loss.gram_vg_ms", "ms"},
	{"loss.sparse_vg_ms", "ms"},
	{"mat.gemm_ms", "ms"},
	{"mat.calib_gemmref_ms", "ms"},
	{"opt.adam_step_ms", "ms"},
	{"core.inner_iters", "count"},
	{"core.outer_iters", "count"},
	{"core.ms_per_inner", "ms"},
	{"core.attributed_frac", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.solve_ms_p90", "ms"},
	{"serve.job_p90_ms", "ms"},
	{"serve.solve_ratio", "ratio"},
	{"serve.tasks_deduped", "count"},
	{"serve.tasks_cached", "count"},
	{"serve.gang_jobs", "count"},
	{"serve.jobs_failed", "count"},
	{"serve.upload_s", "s"},
	{"serve.http_get_ms_p50", "ms"},
	{"coord.hop_ms_p50", "ms"},
	{"coord.tasks_dispatched", "count"},
	{"coord.tasks_stolen", "count"},
	{"coord.affinity_forwards", "count"},
	{"coord.singleflight_joins", "count"},
	{"query.inproc_us_p50", "us"},
	{"query.compile_ms", "ms"},
	{"journal.records", "count"},
	{"journal.bytes", "bytes"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// holdoutSeeds are never used while tuning the benchmark or a change;
// a claimed gain is re-checked on them.
const holdoutSeeds = "9001-9010"

// runConfig is what a workload gets to run with.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory for this run, removed at exit
	procs   int    // kernel workers allowed: the machine's CPU count
}

// outcome accumulates one run's operations, output checks and metrics.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	problems          []string
	settings          map[string]any // pinned knobs, recorded with the run
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), settings: make(map[string]any)}
}

// op counts one operation; it fails when any of its checks did.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// workload runs one workload and fills the outcome. An error means the
// run could not complete and nothing is reported.
type workload func(ctx context.Context, cfg runConfig, o *outcome, rec *recorder) error

var workloads = map[string]workload{
	"learn-dense":  runLearnDense,
	"learn-sparse": runLearnSparse,
	"fleet":        runFleetWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "learn-dense, learn-sparse or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured time the workload sizes its timed phases to")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (learn-dense, learn-sparse, fleet), --seconds > 0, --trace 0|1\n")
		return 2
	}
	// Kernel fan-out never exceeds the CPUs this process may use.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	workRoot := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	work, err := os.MkdirTemp(workRoot, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work, procs: procs}
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	o := newOutcome()
	ctx := context.Background()
	t0 := time.Now()
	if err := wl(ctx, cfg, o, rec); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	wall := time.Since(t0)
	if cfg.trace {
		o.set("trace.spans", float64(len(rec.snapshot())))
		// Share of the run spent recording spans from outside the
		// program (learn workloads add their traced-vs-untraced learn
		// difference; see README.md).
		o.values["trace.overhead_frac"] += rec.overhead().Seconds() / wall.Seconds()
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "e2ebench: %s: metric %s missing or not finite (%v)\n", *name, d.Name, v)
			return 1
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}

	env := environment(cfg, *name)
	env["settings"] = o.settings
	env["wall_s"] = wall.Seconds()
	base := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if cfg.trace {
		if err := writeTrace(filepath.Join(".bench_build", "traces", base+".json"), env, rec.snapshot()); err != nil {
			fmt.Fprintln(stderr, "e2ebench: trace:", err)
			return 1
		}
	}
	if err := writeRecord(filepath.Join(".bench_build", "runs", base+".json"), env, o.values); err != nil {
		fmt.Fprintln(stderr, "e2ebench: run record:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", p)
	}
	fmt.Fprintf(stderr, "e2ebench: %s seed=%d trace=%d wall=%.1fs attempted=%d failed=%d procs=%d %s\n",
		*name, *seed, *trace, wall.Seconds(), o.attempted, o.failed, procs, runtime.Version())

	line, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// logf reports progress on standard error; standard output carries
// only the result line.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...) }

// environment records what separates machine drift from a regression:
// the CPU, the worker budget and the toolchain, next to the seeds.
func environment(cfg runConfig, name string) map[string]any {
	return map[string]any{
		"workload":      name,
		"seed":          cfg.seed,
		"holdout_seeds": holdoutSeeds,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"cpu":           cpuModel(),
		"nproc":         cfg.procs,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goarch":        runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeRecord(path string, env map[string]any, values map[string]float64) error {
	doc, err := json.MarshalIndent(map[string]any{"env": env, "values": values}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
