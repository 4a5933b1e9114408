package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/loss"
	"repro/internal/mat"
	"repro/internal/query"
)

// Shared learn settings. learnTau is the edge threshold of every
// output check, F1 and query; setupReps is how many times a short or
// memory-bound set-up step repeats so the run can report its median.
const (
	learnTau    = 0.3
	learnLambda = 0.2
	learnEps    = 1e-4
	setupReps   = 5
	// queryChunkOps in-process queries make one timed chunk of the
	// queries_per_cpu_s phase; queryChunks chunks run and the median counts.
	queryChunkOps = 300000
	queryChunks   = 5
)

// learn-dense: the paper's Fig-4 shape through the sufficient-
// statistics path, ingested from CSV shards. Inner solves stop at
// denseIters iterations, so the schedule runs until the penalty
// saturates after the same 1,050 inner iterations on every seed (the
// fixed DAG and large n make the statistics nearly seed-independent),
// and a run holds enough identical learns for their median to shrug
// off a burst of load from elsewhere on the machine.
const (
	denseD       = 100
	denseN       = 40000
	denseShards  = 4
	denseIters   = 50
	denseDAGSeed = 1
	// denseNominalS is one learn on the reference machine; the run does
	// round(seconds / denseNominalS) learns, at least five.
	denseNominalS = 3
	// denseF1Floor is the recorded accuracy floor at this shape
	// (README.md).
	denseF1Floor = 0.6
)

// learn-sparse: LEAST-SP on CSV-ingested rows, one dataset per learn.
// As in learn-dense, a learn runs its schedule to penalty saturation
// (ε below reach) with short inner solves: converging on ε instead
// ends after anywhere from two to six outer iterations depending on the
// data, which makes the work swing by a factor of two across seeds.
const (
	sparseD       = 200
	sparseN       = 500
	sparseEps     = 1e-12
	sparseIters   = 30
	sparseDAGSeed = 101
	sparseNominal = 3
	sparseF1Floor = 0.005
)

// genDataset draws n samples of a fixed ER-2 DAG. The DAG is part of
// the workload's definition (dagSeed); the samples come from the run's
// seed, so every seed learns the same network from fresh data and the
// work a learn does stays comparable across seeds.
func genDataset(dagSeed, sampleSeed int64, d, n int) (*least.TrueDAG, *least.Matrix) {
	dag := least.GenerateDAG(dagSeed, least.ErdosRenyi, d, 2)
	return dag, least.SampleLSEM(sampleSeed, dag, n, least.GaussianNoise)
}

// writeCSV writes rows [lo, hi) of x with a header row and returns the
// bytes written.
func writeCSV(path string, x *least.Matrix, lo, hi int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	d := x.Cols()
	for j := 0; j < d; j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, 'x')
		buf = strconv.AppendInt(buf, int64(j), 10)
	}
	buf = append(buf, '\n')
	var n int64
	for i := lo; i < hi; i++ {
		for j, v := range x.Row(i) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		k, err := w.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
		buf = buf[:0]
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// learnCount is how many timed learns fit the measured time.
func learnCount(seconds, nominal float64, atLeast int) int {
	return max(atLeast, int(math.Round(seconds/nominal)))
}

// allocMB reads the process's cumulative heap allocation in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// settle collects garbage before a timed phase, so one phase's garbage
// is not collected on the next phase's clock.
func settle() { runtime.GC() }

// checkLearn is the learn output check: finite weights, an acyclic
// graph at learnTau, and F1 against the generating DAG at or above the
// workload's floor. It returns the F1.
func checkLearn(res *least.Result, truth *least.TrueDAG, floor float64) (float64, error) {
	if res == nil || res.Weights == nil {
		return 0, fmt.Errorf("learn returned no dense weights")
	}
	for _, v := range res.Weights.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("learned weights hold a non-finite value")
		}
	}
	if !res.Graph(learnTau).IsDAG() {
		return 0, fmt.Errorf("learned graph at tau=%g is cyclic", learnTau)
	}
	f1 := least.Evaluate(truth.G, res.Weights, learnTau).F1
	if f1 < floor {
		return f1, fmt.Errorf("F1 %.4f below the floor %.4f", f1, floor)
	}
	return f1, nil
}

// solveSpans turns WithProgress callbacks into one span per inner
// solve under a learn span.
type solveSpans struct {
	rec        *recorder
	parent     int
	solves     int
	start, cur time.Time
}

func (s *solveSpans) progress(p least.Progress) {
	now := time.Now()
	if p.Solves != s.solves {
		if s.solves > 0 {
			s.rec.add("core.solve", s.parent, "", s.start, s.cur)
			s.start = s.cur
		}
		s.solves = p.Solves
	}
	s.cur = now
}

func (s *solveSpans) close() {
	if s.solves > 0 {
		s.rec.add("core.solve", s.parent, "", s.start, s.cur)
	}
}

// timedLearn runs one learn, traced (a learn span with per-solve
// children) when rec is non-nil.
func timedLearn(ctx context.Context, spec *least.Spec, ds least.Dataset, rec *recorder) (*least.Result, cost, error) {
	id := rec.begin("least.LearnDataset", 0, "")
	if rec != nil {
		ss := &solveSpans{rec: rec, parent: id, start: time.Now()}
		var err error
		if spec, err = spec.With(least.WithProgress(ss.progress)); err != nil {
			return nil, cost{}, err
		}
		defer ss.close()
	}
	var res *least.Result
	var err error
	el := measure(func() { res, err = spec.LearnDataset(ctx, ds) })
	defer rec.end(id)
	return res, el, err
}

// queryPhase compiles learned graphs and runs a fixed mix of parents,
// Markov-blanket and d-separation queries on them in-process: the read
// a user of a learned network makes. It checks each compiled graph's
// parents against the thresholded weights first, then reports queries
// per second as the median of equal chunks.
func queryPhase(ws []*mat.Dense, names []string, o *outcome, rec *recorder) {
	var ops []func()
	for _, w := range ws {
		c := query.CompileDense(w, learnTau, names)
		o.op(checkCompiled(c, w))
		ops = append(ops, queryOps(c)...)
	}
	w := ws[0]
	var chunks costs
	id := rec.begin("query.phase", 0, "")
	for k := 0; k < queryChunks; k++ {
		chunks = append(chunks, measure(func() {
			for i := 0; i < queryChunkOps; i++ {
				ops[i%len(ops)]()
			}
		}))
	}
	rec.end(id)
	o.set("queries_per_cpu_s", queryChunkOps/chunks.cpu().median())
	o.set("wall.query_qps", queryChunkOps/chunks.wall().median())

	if rec != nil {
		var each sample
		for i := 0; i < 20000; i++ {
			t0 := time.Now()
			ops[i%len(ops)]()
			each = append(each, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		o.set("query.inproc_us_p50", each.median())
		o.set("query.compile_ms", ms(medianOf(5, func() { query.CompileDense(w, learnTau, names) }).wall))
	}
}

// checkCompiled holds a compiled graph's parents to the graph the
// weights give at learnTau.
func checkCompiled(c *query.Compiled, w *mat.Dense) error {
	truth := (&least.Result{Weights: w}).Graph(learnTau)
	for v := 0; v < c.D(); v++ {
		got := c.Parents(v)
		if len(got) != len(truth.Parents(v)) {
			return fmt.Errorf("compiled parents of %d: %d, graph has %d", v, len(got), len(truth.Parents(v)))
		}
		for _, p := range got {
			if !truth.HasEdge(p.Index, v) {
				return fmt.Errorf("compiled parent %d of %d is not an edge of the graph", p.Index, v)
			}
		}
	}
	return nil
}

// queryOps is the fixed query mix over every node: parents, Markov
// blanket, and (on a DAG) a d-separation test with one observed node.
func queryOps(c *query.Compiled) []func() {
	d := c.D()
	var ops []func()
	for v := 0; v < d; v++ {
		v := v
		ops = append(ops, func() { c.Parents(v) }, func() { c.MarkovBlanket(v) })
		if c.IsDAG() && d >= 3 {
			y, z := (v+d/2)%d, (v+1)%d
			if y != v && z != v && z != y {
				ops = append(ops, func() { _, _ = c.DSeparated(v, y, []int{z}) })
			}
		}
	}
	return ops
}

func runLearnDense(ctx context.Context, cfg runConfig, o *outcome, rec *recorder) error {
	dag, x := genDataset(denseDAGSeed, cfg.seed, denseD, denseN)
	var paths []string
	var csvBytes int64
	for s := 0; s < denseShards; s++ {
		p := filepath.Join(cfg.work, fmt.Sprintf("shard%d.csv", s))
		n, err := writeCSV(p, x, s*denseN/denseShards, (s+1)*denseN/denseShards)
		if err != nil {
			return err
		}
		csvBytes += n
		paths = append(paths, p)
	}
	rows := x.Slice(0, 1000).Clone()
	x = nil
	o.settings["d"], o.settings["n"], o.settings["shards"] = denseD, denseN, denseShards
	o.settings["ingest_workers"], o.settings["kernel_workers"] = 1, 1
	o.settings["dag_seed"] = denseDAGSeed
	o.set("mat.calib_gemmref_ms", calibGEMMRef())
	settle()

	a0 := allocMB()
	var ds least.Dataset
	var st *least.SuffStats
	var ingestErr error
	setup := medianOf(setupReps, func() {
		id := rec.begin("csvio.OpenShards", 0, "")
		ds, ingestErr = least.OpenShards(paths, least.DatasetOptions{Header: true, Workers: 1})
		if ingestErr == nil {
			st, ingestErr = ds.Stats(ctx)
		}
		rec.end(id)
	})
	if ingestErr != nil {
		return ingestErr
	}
	setIngest(o, setup, csvBytes)

	spec, err := least.New(least.WithMethod(least.MethodLEAST), least.WithLambda(learnLambda),
		least.WithEpsilon(learnEps), least.WithParallelism(1), least.WithMaxInner(denseIters))
	if err != nil {
		return err
	}
	var times costs
	var last *least.Result
	count := learnCount(cfg.seconds, denseNominalS, 5)
	for i := 0; i < count; i++ {
		settle()
		// In the traced run every other learn is traced; the pair gives
		// the tracing overhead on a learn.
		var r *recorder
		if i%2 == 1 {
			r = rec
		}
		res, el, err := timedLearn(ctx, spec, ds, r)
		if err != nil {
			return err
		}
		f1, cerr := checkLearn(res, dag, denseF1Floor)
		o.op(cerr)
		o.set("f1", f1)
		times = append(times, el)
		last = res
	}
	setLearns(o, times)
	o.set("core.inner_iters", float64(last.InnerIters))
	o.set("core.outer_iters", float64(last.OuterIters))
	o.set("core.ms_per_inner", ms(times.cpu().median())/float64(last.InnerIters))
	settle()
	queryPhase([]*mat.Dense{last.Weights}, ds.Names(), o, rec)
	o.set("alloc_mb", allocMB()-a0)
	o.set("success_rate", float64(o.attempted-o.failed)/float64(o.attempted))

	if rec != nil {
		traced, plain := evenOdd(times.cpu())
		o.set("trace.overhead_frac", traced/plain-1)
		replayKernels(kernelShape{w: last.Weights, st: st, rows: rows, lambda: learnLambda, workers: 1}, cfg.procs, o, rec)
		o.set("core.attributed_frac", float64(last.InnerIters)*
			(o.values["constraint.spectral_vg_ms"]+o.values["loss.gram_vg_ms"]+o.values["opt.adam_step_ms"])/ms(times.wall().median()))
		if err := fleetProbe(ctx, cfg, o, rec); err != nil {
			return err
		}
	}
	return nil
}

func runLearnSparse(ctx context.Context, cfg runConfig, o *outcome, rec *recorder) error {
	count := learnCount(cfg.seconds, sparseNominal, 2)
	type inst struct {
		dag  *least.TrueDAG
		path string
		ds   least.Dataset
	}
	insts := make([]inst, count)
	var csvBytes int64
	var rows *least.Matrix
	for i := range insts {
		dag, x := genDataset(sparseDAGSeed+int64(i), cfg.seed*1000+int64(i), sparseD, sparseN)
		p := filepath.Join(cfg.work, fmt.Sprintf("data%d.csv", i))
		n, err := writeCSV(p, x, 0, sparseN)
		if err != nil {
			return err
		}
		csvBytes += n
		insts[i] = inst{dag: dag, path: p}
		if i == 0 {
			rows = x
		}
	}
	o.settings["d"], o.settings["n"], o.settings["learns"] = sparseD, sparseN, count
	o.settings["ingest_workers"], o.settings["kernel_workers"] = 1, cfg.procs
	o.settings["dag_seed"] = sparseDAGSeed
	o.set("mat.calib_gemmref_ms", calibGEMMRef())
	settle()

	a0 := allocMB()
	var ingestErr error
	setup := medianOf(setupReps, func() {
		for i := range insts {
			id := rec.begin("csvio.OpenDataset", 0, "")
			insts[i].ds, ingestErr = least.OpenDataset(insts[i].path, least.DatasetOptions{Header: true, Workers: 1})
			rec.end(id)
			if ingestErr != nil {
				return
			}
		}
	})
	if ingestErr != nil {
		return ingestErr
	}
	setIngest(o, setup, csvBytes)

	spec, err := least.New(least.WithMethod(least.MethodLEASTSP), least.WithLambda(learnLambda),
		least.WithEpsilon(sparseEps), least.WithParallelism(cfg.procs), least.WithMaxInner(sparseIters))
	if err != nil {
		return err
	}
	var times costs
	var f1s sample
	var learned []*mat.Dense
	inner, outer := 0, 0
	for i := range insts {
		settle()
		res, el, err := timedLearn(ctx, spec, insts[i].ds, rec)
		if err != nil {
			return err
		}
		f1, cerr := checkLearn(res, insts[i].dag, sparseF1Floor)
		o.op(cerr)
		times, f1s = append(times, el), append(f1s, f1)
		inner, outer = inner+res.InnerIters, outer+res.OuterIters
		learned = append(learned, res.Weights)
	}
	// Each learn sees a different dataset: the median over the run's
	// datasets settles both the seed-to-seed spread in iteration counts
	// and bursts of load from elsewhere on the machine.
	setLearns(o, times)
	o.set("f1", f1s.mean())
	o.set("core.inner_iters", float64(inner))
	o.set("core.outer_iters", float64(outer))
	o.set("core.ms_per_inner", ms(sumOf(times.cpu()))/float64(inner))
	settle()
	queryPhase(learned, insts[0].ds.Names(), o, rec)
	o.set("alloc_mb", allocMB()-a0)
	o.set("success_rate", float64(o.attempted-o.failed)/float64(o.attempted))

	if rec != nil {
		// Tracing overhead: the first dataset again, untraced and then
		// traced, back to back.
		var pair [2]cost
		for k, r := range []*recorder{nil, rec} {
			settle()
			_, el, err := timedLearn(ctx, spec, insts[0].ds, r)
			if err != nil {
				return err
			}
			pair[k] = el
		}
		o.set("trace.overhead_frac", pair[1].cpu/pair[0].cpu-1)
		st := loss.StatsOf(rows, 1)
		replayKernels(kernelShape{w: learned[0], st: st, rows: rows, lambda: learnLambda, workers: cfg.procs, sparse: true},
			cfg.procs, o, rec)
		o.set("core.attributed_frac", float64(inner)*
			(o.values["constraint.spectral_sparse_vg_ms"]+o.values["loss.sparse_vg_ms"]+o.values["opt.adam_step_ms"])/ms(sumOf(times.wall())))
		if err := fleetProbe(ctx, cfg, o, rec); err != nil {
			return err
		}
	}
	return nil
}

// setLearns reports the run's learns: the median CPU time of one learn
// and learns per CPU-second, with their wall-clock forms in the run
// record.
func setLearns(o *outcome, times costs) {
	o.set("learn_cpu_s", times.cpu().median())
	o.set("tasks_per_cpu_s", float64(len(times))/sumOf(times.cpu()))
	o.set("wall.learn_s", times.wall().median())
	o.set("wall.tasks_per_s", float64(len(times))/sumOf(times.wall()))
}

// setIngest reports the set-up ingest: its median CPU time gates
// set-up, and the per-layer ingest rate is bytes per CPU-second.
func setIngest(o *outcome, setup cost, csvBytes int64) {
	o.set("setup_s", setup.cpu)
	o.set("wall.setup_s", setup.wall)
	o.set("csvio.ingest_s", setup.cpu)
	o.set("csvio.ingest_mb_per_s", float64(csvBytes)/1e6/setup.cpu)
}

// evenOdd returns the median of the odd-indexed (traced) and the
// even-indexed (untraced) values.
func evenOdd(s sample) (odd, even float64) {
	var a, b sample
	for i, v := range s {
		if i%2 == 1 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a.median(), b.median()
}

func sumOf(s sample) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}
