package main

import (
	"runtime"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/loss"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/sparse"
)

// calibDim is the fixed shape of the same-run drift calibration: the
// retained reference GEMM, which no optimisation touches, so a change
// in it between two runs is the machine, not the code.
const calibDim = 128

// perCallMS returns the median per-call time of fn in milliseconds over
// five batches, each sized to last at least about 20ms.
func perCallMS(fn func()) float64 {
	fn() // warm pools and caches
	n := 1
	for {
		if el := timeIt(func() {
			for i := 0; i < n; i++ {
				fn()
			}
		}); el >= 0.02 {
			break
		}
		n *= 2
	}
	var s sample
	for b := 0; b < 5; b++ {
		el := timeIt(func() {
			for i := 0; i < n; i++ {
				fn()
			}
		})
		s = append(s, ms(el)/float64(n))
	}
	return s.median()
}

// allocsPerCall counts heap allocations per call of fn.
func allocsPerCall(fn func()) float64 {
	const calls = 20
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / calls
}

// calibGEMMRef times mat.MulRef at calibDim.
func calibGEMMRef() float64 {
	a := mat.NewDense(calibDim, calibDim)
	for i, v := 0, 0.5; i < calibDim*calibDim; i++ {
		v = v*1.0001 + 1e-3
		a.Data()[i] = v
	}
	var s sample
	for i := 0; i < 5; i++ {
		s = append(s, ms(timeIt(func() { mat.MulRef(a, a) })))
	}
	return s.median()
}

// kernelShape is what the replay needs to call each kernel a learn
// runs at the workload's own shape: the learned weights, the
// sufficient statistics, a block of sample rows, and the worker count
// the workload's learns use.
type kernelShape struct {
	w       *mat.Dense
	st      *loss.SuffStats
	rows    *mat.Dense
	lambda  float64
	workers int
	sparse  bool // the learner keeps W on a CSR support (Adam over its nnz)
}

// replayKernels calls each kernel once per span and fills the
// per-layer kernel metrics. Kernels inside a learn cannot be wrapped
// from outside, so they are replayed on the learned W instead.
func replayKernels(ks kernelShape, procs int, o *outcome, rec *recorder) {
	d := ks.w.Rows()
	defo := core.DefaultOptions()
	wsp := sparse.FromDense(ks.w, 0)
	if wsp.NNZ() == 0 {
		// An empty learned graph would replay nothing; keep the shape
		// with the diagonal-free support of a one-edge-per-row ring.
		ring := mat.NewDense(d, d)
		for i := 0; i < d; i++ {
			ring.Set(i, (i+1)%d, 0.5)
		}
		wsp = sparse.FromDense(ring, 0)
	}
	root := rec.begin("replay", 0, "")
	defer rec.end(root)
	span := func(name string, fn func()) float64 {
		var v float64
		rec.wrap(name, root, func() { v = perCallMS(fn) })
		return v
	}

	sp := constraint.NewSpectral(defo.K, defo.Alpha)
	o.set("constraint.spectral_vg_ms", span("constraint.ValueGrad", func() { sp.ValueGrad(ks.w) }))
	o.set("constraint.spectral_vg_allocs", allocsPerCall(func() { sp.ValueGrad(ks.w) }))

	spN := constraint.NewSpectral(defo.K, defo.Alpha)
	spN.Workers = procs
	sp1 := constraint.NewSpectral(defo.K, defo.Alpha)
	sp1.Workers = 1
	tN := span("constraint.ValueGradSparse", func() { spN.ValueGradSparse(wsp) })
	t1 := span("constraint.ValueGradSparse.serial", func() { sp1.ValueGradSparse(wsp) })
	o.set("constraint.spectral_sparse_vg_ms", tN)
	o.set("parallel.sparse_vg_speedup", t1/tN)

	ls := loss.LeastSquares{Lambda: ks.lambda, Workers: ks.workers}
	ev := loss.NewGramEval(ls, ks.st)
	o.set("loss.gram_vg_ms", span("loss.GramEval.ValueGrad", func() { ev.ValueGrad(ks.w) }))
	lsN := loss.LeastSquares{Lambda: ks.lambda, Workers: procs}
	o.set("loss.sparse_vg_ms", span("loss.ValueGradSparse", func() { lsN.ValueGradSparse(wsp, ks.rows) }))

	dst := mat.NewDense(d, d)
	o.set("mat.gemm_ms", span("mat.MulInto", func() { ks.st.Gram.MulInto(dst, ks.w, ks.workers) }))

	params := append([]float64(nil), ks.w.Data()...)
	grad := make([]float64, len(params))
	_, g := ev.ValueGrad(ks.w)
	copy(grad, g.Data())
	if ks.sparse {
		params = append([]float64(nil), wsp.Val...)
		grad = grad[:len(params)]
	}
	adam := opt.NewAdam(defo.Adam, len(params))
	o.set("opt.adam_step_ms", span("opt.Adam.Step", func() { adam.Step(params, grad) }))
}
