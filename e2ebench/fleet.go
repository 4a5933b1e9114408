package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/coord"
	"repro/internal/loss"
	"repro/internal/mat"
	"repro/internal/serve"
)

// fleetConfig sizes the fleet workload.
type fleetConfig struct {
	nodes     int
	datasets  int // by-ref datasets uploaded at set-up
	dsD, dsN  int
	unique    int // unique batch tasks; each is sent twice
	batchD    int
	batchN    int
	jobs      int // sequential by-ref jobs
	queries   int // timed queries through the coordinator
	setupReps int
	taskSpec  map[string]any // spec of every batch task
	jobIters  int            // max_inner of every by-ref job (one solve each)
}

// fleetFull is the fleet workload; fleetMini is the small probe the
// learn workloads' traced runs use for the serving layers.
var (
	fleetFull = fleetConfig{nodes: 2, datasets: 2, dsD: 20, dsN: 20000, unique: 100, batchD: 20, batchN: 500,
		jobs: 100, queries: 8000, setupReps: setupReps,
		taskSpec: map[string]any{"max_outer": 1, "max_inner": 200}, jobIters: 5}
	fleetMini = fleetConfig{nodes: 2, datasets: 1, dsD: 10, dsN: 200, unique: 6, batchD: 10, batchN: 100,
		jobs: 6, queries: 300, setupReps: 1,
		taskSpec: map[string]any{"max_outer": 1, "max_inner": 30}, jobIters: 30}
)

const (
	fleetDAGSeed = 501
	fleetF1Floor = 0.3
)

// stack is an in-process fleet: node managers with HTTP servers and a
// coordinator in front, all on loopback.
type stack struct {
	mgrs  []*serve.Manager
	srvs  []*http.Server
	nodes []string // node base URLs
	co    *coord.Coordinator
	csrv  *http.Server
	base  string // coordinator base URL
	wg    sync.WaitGroup
}

func (s *stack) serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), srv, nil
}

// bootStack starts n nodes, each with MaxConcurrent 1 and a journal
// under dir, and a coordinator, and waits for the coordinator's
// /healthz to report every node alive.
func bootStack(hc *http.Client, n int, dir string) (*stack, error) {
	s := &stack{}
	var members []coord.NodeConfig
	for i := 0; i < n; i++ {
		m, err := serve.OpenManager(serve.Config{MaxConcurrent: 1, QueueDepth: 1024, MaxHistory: 1 << 20,
			JournalDir: filepath.Join(dir, fmt.Sprintf("n%d", i))})
		if err != nil {
			s.close()
			return nil, err
		}
		s.mgrs = append(s.mgrs, m)
		base, srv, err := s.serve(serve.NewAPI(m).Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.srvs = append(s.srvs, srv)
		s.nodes = append(s.nodes, base)
		members = append(members, coord.NodeConfig{Name: fmt.Sprintf("n%d", i), URL: base})
	}
	co, err := coord.New(coord.Config{Nodes: members, HealthEvery: 250 * time.Millisecond,
		GossipEvery: 250 * time.Millisecond, StealEvery: 100 * time.Millisecond, PollEvery: 10 * time.Millisecond})
	if err != nil {
		s.close()
		return nil, err
	}
	s.co = co
	co.CheckHealth()
	co.SyncGossip()
	if s.base, s.csrv, err = s.serve(co.Handler()); err != nil {
		s.close()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var h struct {
			Status string `json:"status"`
		}
		if code, err := doJSON(hc, "GET", s.base+"/healthz", nil, &h); err == nil && code == 200 && h.Status == "ok" {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("fleet: coordinator never reported healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close shuts everything down and waits for the servers to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if s.csrv != nil {
		_ = s.csrv.Close()
	}
	if s.co != nil {
		s.co.Shutdown(ctx)
	}
	for i, m := range s.mgrs {
		m.Shutdown(ctx)
		if i < len(s.srvs) {
			_ = s.srvs[i].Close()
		}
	}
	s.wg.Wait()
}

// doJSON does one JSON round trip; body may be pre-encoded []byte.
func doJSON(hc *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// get fetches url and discards the body, returning the status code.
func get(hc *http.Client, url string) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// jobStatus is the part of the v2 job status the benchmark reads.
type jobStatus struct {
	ID         string    `json:"id"`
	State      string    `json:"state"`
	Created    time.Time `json:"created"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	Solves     int       `json:"solves"`
	InnerIters int       `json:"inner_iters"`
	Error      string    `json:"error"`
}

// waitJob follows the job's event stream to its terminal event and
// returns the status that event carries.
func waitJob(hc *http.Client, base, id string) (jobStatus, error) {
	var st jobStatus
	resp, err := hc.Get(base + "/v2/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return st, fmt.Errorf("events for %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && (event == "done" || event == "failed" || event == "cancelled") {
			if err := json.Unmarshal([]byte(v), &st); err != nil {
				return st, err
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events for %s ended without a terminal event", id)
}

// tallies is the generator's own ledger for the fleet check.
type tallies struct {
	jobs, batches, rows, coordQueries, directQueries int64
}

func csvDoc(x *least.Matrix) string {
	var b strings.Builder
	for j := 0; j < x.Cols(); j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString("x" + strconv.Itoa(j))
	}
	b.WriteByte('\n')
	var buf []byte
	for i := 0; i < x.Rows(); i++ {
		buf = buf[:0]
		for j, v := range x.Row(i) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		b.Write(buf)
	}
	return b.String()
}

func runFleetWorkload(ctx context.Context, cfg runConfig, o *outcome, rec *recorder) error {
	o.set("mat.calib_gemmref_ms", calibGEMMRef())
	return runFleet(ctx, cfg, fleetFull, o, rec, true)
}

// fleetProbe runs the small fleet for the serving layers' per-layer
// metrics in a learn workload's traced run.
func fleetProbe(ctx context.Context, cfg runConfig, o *outcome, rec *recorder) error {
	p := newOutcome()
	if err := runFleet(ctx, cfg, fleetMini, p, rec, false); err != nil {
		return err
	}
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	for k, v := range p.values {
		if strings.HasPrefix(k, "serve.") || strings.HasPrefix(k, "coord.") || strings.HasPrefix(k, "journal.") {
			o.values[k] = v
		}
	}
	return nil
}

// runFleet is the fleet workload at size fc. full marks the workload
// proper, which reports the end-to-end metrics and replays kernels.
func runFleet(ctx context.Context, cfg runConfig, fc fleetConfig, o *outcome, rec *recorder, full bool) error {
	// Inputs, generated before any clock starts.
	rng := rand.New(rand.NewSource(cfg.seed))
	type dataset struct {
		dag *least.TrueDAG
		x   *least.Matrix
		doc []byte
	}
	dss := make([]dataset, fc.datasets)
	for i := range dss {
		dag, x := genDataset(fleetDAGSeed+int64(i), cfg.seed*1000+int64(i), fc.dsD, fc.dsN)
		doc, err := json.Marshal(map[string]any{"csv": csvDoc(x), "header": true})
		if err != nil {
			return err
		}
		dss[i] = dataset{dag: dag, x: x, doc: doc}
	}
	tasks := make([]map[string]any, 0, 2*fc.unique)
	taskDAGs := make([]*least.TrueDAG, fc.unique)
	for i := 0; i < fc.unique; i++ {
		var x *least.Matrix
		taskDAGs[i], x = genDataset(fleetDAGSeed+100+int64(i%10), cfg.seed*100000+int64(i), fc.batchD, fc.batchN)
		samples := make([][]float64, x.Rows())
		for r := range samples {
			samples[r] = x.Row(r)
		}
		for _, twin := range []string{"a", "b"} {
			tasks = append(tasks, map[string]any{"id": fmt.Sprintf("t%03d%s", i, twin), "samples": samples, "spec": fc.taskSpec})
		}
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	batchBody, err := json.Marshal(map[string]any{"tasks": tasks})
	if err != nil {
		return err
	}
	tasks = nil
	if full {
		o.settings["nodes"], o.settings["max_concurrent"] = fc.nodes, 1
		o.settings["datasets"], o.settings["ds_d"], o.settings["ds_n"] = fc.datasets, fc.dsD, fc.dsN
		o.settings["batch_rows"], o.settings["batch_d"], o.settings["batch_n"] = 2*fc.unique, fc.batchD, fc.batchN
		o.settings["jobs"], o.settings["queries"] = fc.jobs, fc.queries
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer hc.CloseIdleConnections()
	t := &tallies{}
	settle()

	// Set-up: boot and upload, repeated; the last stack stays up.
	a0 := allocMB()
	var st *stack
	var refs []string
	var setups, uploads costs
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for rep := 0; rep < fc.setupReps; rep++ {
		if st != nil {
			st.close()
			st = nil
		}
		dir, err := os.MkdirTemp(cfg.work, "journal-")
		if err != nil {
			return err
		}
		id := rec.begin("fleet.setup", 0, "")
		t0, c0 := time.Now(), cpuNow()
		if st, err = bootStack(hc, fc.nodes, dir); err != nil {
			return err
		}
		t1, c1 := time.Now(), cpuNow()
		refs = refs[:0]
		for _, ds := range dss {
			var info struct {
				ID string `json:"id"`
				N  int    `json:"n"`
				D  int    `json:"d"`
			}
			code, err := doJSON(hc, "POST", st.base+"/v2/datasets", ds.doc, &info)
			if err != nil || (code != http.StatusCreated && code != http.StatusOK) {
				return fmt.Errorf("upload: HTTP %d: %v", code, err)
			}
			if info.N != fc.dsN || info.D != fc.dsD {
				return fmt.Errorf("upload: registered %dx%d, sent %dx%d", info.N, info.D, fc.dsN, fc.dsD)
			}
			refs = append(refs, info.ID)
		}
		t2, c2 := time.Now(), cpuNow()
		rec.end(id)
		rec.add("serve.upload", id, "", t1, t2)
		setups = append(setups, cost{wall: t2.Sub(t0).Seconds(), cpu: (c2 - c0).Seconds()})
		uploads = append(uploads, cost{wall: t2.Sub(t1).Seconds(), cpu: (c2 - c1).Seconds()})
	}
	o.set("setup_s", setups.cpu().median())
	o.set("wall.setup_s", setups.wall().median())
	o.set("serve.upload_s", uploads.cpu().median())
	logf("fleet: set-up %.2fs wall, %.2fs CPU", setups.wall().median(), setups.cpu().median())
	settle()

	// Phase (a): one batch of inline rows, each unique task twice.
	before := sumNodeMetrics(hc, st.nodes)
	phaseA := rec.begin("fleet.batch", 0, "batch")
	ta, ca := time.Now(), cpuNow()
	var bst struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Total int    `json:"total"`
	}
	if code, err := doJSON(hc, "POST", st.base+"/v2/batches", batchBody, &bst); err != nil || code != http.StatusAccepted {
		return fmt.Errorf("batch submit: HTTP %d: %v", code, err)
	}
	t.batches++
	t.rows += int64(2 * fc.unique)
	for bst.State == string(serve.BatchRunning) {
		time.Sleep(10 * time.Millisecond)
		if _, err := doJSON(hc, "GET", st.base+"/v2/batches/"+bst.ID, nil, &bst); err != nil {
			return err
		}
	}
	batchS, batchCPU := time.Since(ta).Seconds(), (cpuNow() - ca).Seconds()
	rec.end(phaseA)
	after := sumNodeMetrics(hc, st.nodes)
	o.set("tasks_per_cpu_s", float64(2*fc.unique)/batchCPU)
	o.set("wall.tasks_per_s", float64(2*fc.unique)/batchS)
	logf("fleet: batch of %d rows %.2fs wall, %.2fs CPU", 2*fc.unique, batchS, batchCPU)
	solves := (after["least_jobs_done_total"] - before["least_jobs_done_total"]) -
		(after["least_batch_tasks_cached_total"] - before["least_batch_tasks_cached_total"])
	o.set("serve.solve_ratio", solves/float64(2*fc.unique))
	taskJobs := checkBatchRows(hc, st.base, bst.ID, 2*fc.unique, o)

	// Phase (b): sequential by-ref jobs, every spec unique.
	settle()
	var lat costs
	var waits, solvesMS sample
	var inner, outer int
	jobIDs := make([]string, 0, fc.jobs)
	jobDS := make([]int, 0, fc.jobs)
	for i := 0; i < fc.jobs; i++ {
		k := i % len(refs)
		body, err := json.Marshal(map[string]any{"dataset_ref": refs[k],
			"spec": map[string]any{"lambda": 0.1 + 0.001*float64(i), "max_outer": 1, "max_inner": fc.jobIters}})
		if err != nil {
			return err
		}
		req := "job" + strconv.Itoa(i)
		root := rec.begin("fleet.job", 0, req)
		t0, c0 := time.Now(), cpuNow()
		var sub jobStatus
		code, err := doJSON(hc, "POST", st.base+"/v2/jobs", body, &sub)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("job submit: HTTP %d: %v", code, err)
		}
		t.jobs++
		js, err := waitJob(hc, st.base, sub.ID)
		if err != nil {
			return err
		}
		lat = append(lat, cost{wall: time.Since(t0).Seconds(), cpu: (cpuNow() - c0).Seconds()})
		rec.end(root)
		if rec != nil && !js.Started.IsZero() {
			rec.add("serve.queue_wait", root, req, js.Created, js.Started)
			rec.add("serve.solve", root, req, js.Started, js.Finished)
		}
		var jerr error
		if js.State != "done" {
			jerr = fmt.Errorf("job %s ended %s: %s", js.ID, js.State, js.Error)
		}
		o.op(jerr)
		waits = append(waits, ms(js.Started.Sub(js.Created).Seconds()))
		solvesMS = append(solvesMS, ms(js.Finished.Sub(js.Started).Seconds()))
		inner += js.InnerIters
		outer += js.Solves
		jobIDs = append(jobIDs, js.ID)
		jobDS = append(jobDS, k)
	}
	o.set("learn_cpu_s", lat.cpu().median())
	o.set("wall.learn_s", lat.wall().median())
	logf("fleet: %d jobs %.2fs wall, p50 %.1fms wall, %.1fms CPU", fc.jobs, sumOf(lat.wall()), ms(lat.wall().median()), ms(lat.cpu().median()))
	p90, _ := lat.wall().percentile(90)
	o.set("serve.job_p90_ms", ms(p90))
	for _, q := range []struct {
		name string
		s    sample
	}{{"serve.queue_wait_ms", waits}, {"serve.solve_ms", solvesMS}} {
		v50, _ := q.s.percentile(50)
		v90, _ := q.s.percentile(90)
		o.set(q.name+"_p50", v50)
		o.set(q.name+"_p90", v90)
	}

	// Accuracy of the batch learns, read back untimed.
	var f1s sample
	for i := 0; i < fc.unique; i++ {
		id := taskJobs[fmt.Sprintf("t%03da", i)]
		if id == "" {
			continue // already failed by the row check
		}
		w, err := fetchWeights(hc, st.base, id, fc.batchD)
		if err != nil {
			return err
		}
		f1 := least.Evaluate(taskDAGs[i].G, w, learnTau).F1
		f1s = append(f1s, f1)
		var ferr error
		if full && f1 < fleetF1Floor {
			ferr = fmt.Errorf("task t%03d (job %s): F1 %.4f below the floor %.4f", i, id, f1, fleetF1Floor)
		}
		o.op(ferr)
	}
	o.set("f1", f1s.mean())
	firstW, err := fetchWeights(hc, st.base, jobIDs[0], fc.dsD)
	if err != nil {
		return err
	}

	// Phase (c): sequential reads through the coordinator.
	urls := make([]string, 0, 3*len(jobIDs))
	for _, id := range jobIDs {
		var sum struct {
			IsDAG bool `json:"is_dag"`
		}
		code, err := doJSON(hc, "GET", fmt.Sprintf("%s/v2/jobs/%s/query/summary?tau=%g", st.base, id, learnTau), nil, &sum)
		if err != nil || code != 200 {
			return fmt.Errorf("warm-up query on %s: HTTP %d: %v", id, code, err)
		}
		t.coordQueries++
		v := strconv.Itoa(len(urls) % fc.dsD)
		q := fmt.Sprintf("/v2/jobs/%s/query/", id)
		urls = append(urls, q+"parents?tau=0.3&node="+v, q+"blanket?tau=0.3&node="+v)
		if sum.IsDAG {
			urls = append(urls, fmt.Sprintf("%sdsep?tau=0.3&x=0&y=%d&z=%d", q, fc.dsD-1, fc.dsD/2))
		}
	}
	settle()
	phaseC := rec.begin("fleet.queries", 0, "")
	var qlat sample
	var chunk costs
	qfail := 0
	const chunks = 8
	tc := time.Now()
	for k := 0; k < chunks; k++ {
		t1, c1 := time.Now(), cpuNow()
		for i := k * fc.queries / chunks; i < (k+1)*fc.queries/chunks; i++ {
			t0 := time.Now()
			code, err := get(hc, st.base+urls[i%len(urls)])
			if err != nil {
				return err
			}
			t.coordQueries++
			if code != 200 {
				qfail++
			}
			if rec != nil {
				qlat = append(qlat, ms(time.Since(t0).Seconds()))
			}
		}
		chunk = append(chunk, cost{wall: time.Since(t1).Seconds(), cpu: (cpuNow() - c1).Seconds()})
	}
	// The median chunk, so a burst of load elsewhere on the machine
	// does not decide the figure.
	o.set("queries_per_cpu_s", float64(fc.queries/chunks)/chunk.cpu().median())
	o.set("wall.query_qps", float64(fc.queries/chunks)/chunk.wall().median())
	logf("fleet: %d queries %.2fs", fc.queries, time.Since(tc).Seconds())
	rec.end(phaseC)
	o.attempted += fc.queries
	o.failed += qfail
	if qfail > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d queries failed", qfail, fc.queries))
	}
	o.set("alloc_mb", allocMB()-a0)

	if rec != nil {
		// The same reads straight to the owning node: the difference is
		// the coordinator hop.
		var dlat sample
		for i := 0; i < min(fc.queries, 2000); i++ {
			node, local, _ := strings.Cut(urls[i%len(urls)][len("/v2/jobs/"):], ".")
			n, _ := strconv.Atoi(strings.TrimPrefix(node, "n"))
			t0 := time.Now()
			code, err := get(hc, st.nodes[n]+"/v2/jobs/"+local)
			if err != nil {
				return err
			}
			t.directQueries++
			dlat = append(dlat, ms(time.Since(t0).Seconds()))
			o.op(statusErr(code))
		}
		o.set("serve.http_get_ms_p50", dlat.median())
		o.set("coord.hop_ms_p50", qlat.median()-dlat.median())
	}

	// Ledgers: node counters summed, the coordinator's, the generator's.
	o.op(checkLedgers(hc, st, t))
	fin := sumNodeMetrics(hc, st.nodes)
	cm := st.co.Metrics()
	o.set("serve.tasks_deduped", fin["least_batch_tasks_deduped_total"])
	o.set("serve.tasks_cached", fin["least_batch_tasks_cached_total"])
	o.set("serve.gang_jobs", fin["least_gang_jobs_total"])
	o.set("serve.jobs_failed", fin["least_jobs_failed_total"])
	o.set("journal.records", fin["least_journal_records_total"])
	o.set("journal.bytes", fin["least_journal_bytes_total"])
	o.set("coord.tasks_dispatched", float64(cm.TasksDispatched.Load()))
	o.set("coord.tasks_stolen", float64(cm.TasksStolen.Load()))
	o.set("coord.affinity_forwards", float64(cm.AffinityForwards.Load()))
	o.set("coord.singleflight_joins", float64(cm.SingleflightJoins.Load()))
	o.set("success_rate", float64(o.attempted-o.failed)/float64(o.attempted))

	if rec != nil && full {
		o.set("core.inner_iters", float64(inner))
		o.set("core.outer_iters", float64(outer))
		o.set("core.ms_per_inner", sumOf(solvesMS)/float64(inner))
		x := dss[jobDS[0]].x
		stats := loss.StatsOf(x, 1)
		replayKernels(kernelShape{w: firstW, st: stats, rows: x, lambda: 0.1, workers: cfg.procs}, cfg.procs, o, rec)
		ls := loss.LeastSquares{Lambda: 0.1, Workers: cfg.procs}
		rowVG := perCallMS(func() { ls.ValueGrad(firstW, x) })
		o.set("core.attributed_frac", float64(inner)*
			(o.values["constraint.spectral_vg_ms"]+rowVG+o.values["opt.adam_step_ms"])/sumOf(solvesMS))
		names := make([]string, fc.dsD)
		for j := range names {
			names[j] = "x" + strconv.Itoa(j)
		}
		qo := newOutcome()
		queryPhase([]*mat.Dense{firstW}, names, qo, rec)
		o.set("query.inproc_us_p50", qo.values["query.inproc_us_p50"])
		o.set("query.compile_ms", qo.values["query.compile_ms"])
		o.attempted += qo.attempted
		o.failed += qo.failed
		o.problems = append(o.problems, qo.problems...)
		// Ingest replay: the uploaded CSV through the streaming reader.
		p := filepath.Join(cfg.work, "upload0.csv")
		n, err := writeCSV(p, dss[0].x, 0, fc.dsN)
		if err != nil {
			return err
		}
		var ierr error
		is := medianOf(setupReps, func() {
			id := rec.begin("csvio.OpenDataset", 0, "")
			_, ierr = least.OpenDataset(p, least.DatasetOptions{Header: true, Workers: 1})
			rec.end(id)
		})
		if ierr != nil {
			return ierr
		}
		o.set("csvio.ingest_s", is.cpu)
		o.set("csvio.ingest_mb_per_s", float64(n)/1e6/is.cpu)
		// Fleet spans come from the servers' own timestamps, so tracing
		// adds nothing to the requests: the overhead is the recorder's
		// own time, which run adds for every workload.
		o.set("trace.overhead_frac", 0)
	}
	return nil
}

func statusErr(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d", code)
	}
	return nil
}

// fetchWeights reads a job's learned graph at tau 0 as a dense matrix.
func fetchWeights(hc *http.Client, base, id string, d int) (*least.Matrix, error) {
	var g struct {
		Nodes []string `json:"nodes"`
		Edges []struct {
			From   int     `json:"from"`
			To     int     `json:"to"`
			Weight float64 `json:"weight"`
		} `json:"edges"`
	}
	code, err := doJSON(hc, "GET", base+"/v2/jobs/"+id+"/graph?tau=0", nil, &g)
	if err != nil || code != 200 {
		return nil, fmt.Errorf("graph of %s: HTTP %d: %v", id, code, err)
	}
	if len(g.Nodes) != d {
		return nil, fmt.Errorf("graph of %s has %d nodes, want %d", id, len(g.Nodes), d)
	}
	w := least.NewMatrix(d, d)
	for _, e := range g.Edges {
		w.Set(e.From, e.To, e.Weight)
	}
	return w, nil
}

// checkBatchRows is the batch output check: every row done, and each
// unique task's two rows (labels tNNNa, tNNNb) share one job id.
func checkBatchRows(hc *http.Client, base, id string, rows int, o *outcome) map[string]string {
	var page struct {
		Total int `json:"total"`
		Tasks []struct {
			Label string `json:"label"`
			State string `json:"state"`
			Job   string `json:"job"`
		} `json:"tasks"`
	}
	code, err := doJSON(hc, "GET", fmt.Sprintf("%s/v2/batches/%s/tasks?limit=%d", base, id, rows), nil, &page)
	if err != nil || code != 200 || len(page.Tasks) != rows {
		o.op(fmt.Errorf("batch task table: HTTP %d, %d rows of %d: %v", code, len(page.Tasks), rows, err))
		return nil
	}
	jobOf := make(map[string]string)
	for _, tk := range page.Tasks {
		jobOf[tk.Label] = tk.Job
	}
	for _, tk := range page.Tasks {
		var err error
		twin := strings.TrimSuffix(tk.Label, "a") + "b"
		switch {
		case tk.State != "done":
			err = fmt.Errorf("batch row %s ended %s", tk.Label, tk.State)
		case strings.HasSuffix(tk.Label, "a") && jobOf[twin] != tk.Job:
			err = fmt.Errorf("twins %s and %s ran as jobs %s and %s", tk.Label, twin, tk.Job, jobOf[twin])
		}
		o.op(err)
	}
	return jobOf
}

// sumNodeMetrics scrapes every node's /metrics directly and sums them.
func sumNodeMetrics(hc *http.Client, nodes []string) map[string]float64 {
	sum := make(map[string]float64)
	for _, base := range nodes {
		resp, err := hc.Get(base + "/metrics")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for k, v := range parseMetrics(string(body)) {
			sum[k] += v
		}
	}
	return sum
}

// parseMetrics reads the Prometheus text exposition into name → value.
func parseMetrics(body string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m
}

// checkLedgers holds the fleet to account once it is quiet: the node
// ledgers summed across nodes must equal the coordinator's counters
// and the generator's own tallies exactly.
//
//   - queries: every query the generator sent, through the coordinator
//     or straight to a node, was counted once by a node;
//   - batch rows admitted on nodes equal the coordinator's dispatches;
//   - jobs minted fleet-wide equal routed submissions plus dispatched
//     rows minus the nodes' own dedupe and shedding;
//   - routed plus joined submissions equal the generator's, and split
//     manifests equal its batches;
//   - nothing is queued or running.
func checkLedgers(hc *http.Client, s *stack, t *tallies) error {
	sum := sumNodeMetrics(hc, s.nodes)
	cm := s.co.Metrics()
	var bad []string
	expect := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s = %d, want %d", what, got, want))
		}
	}
	n := func(name string) int64 { return int64(sum[name]) }
	expect("Σ least_query_requests_total", n("least_query_requests_total"), t.coordQueries+t.directQueries)
	expect("Σ least_batch_tasks_admitted_total", n("least_batch_tasks_admitted_total"), cm.TasksDispatched.Load())
	expect("Σ least_jobs_submitted_total", n("least_jobs_submitted_total"),
		cm.JobsRouted.Load()+cm.TasksDispatched.Load()-n("least_batch_tasks_deduped_total")-n("least_batch_tasks_shed_total"))
	expect("Σ least_jobs_running", n("least_jobs_running"), 0)
	expect("Σ least_jobs_queued", n("least_jobs_queued"), 0)
	expect("coordinator routed+joined", cm.JobsRouted.Load()+cm.SingleflightJoins.Load(), t.jobs)
	expect("coordinator split manifests", cm.BatchesSplit.Load(), t.batches)
	expect("coordinator dispatched rows (no steals or redispatch)", cm.TasksDispatched.Load()-cm.TasksStolen.Load()-cm.TasksRedispatched.Load(), t.rows)
	if len(bad) > 0 {
		return fmt.Errorf("fleet ledgers disagree: %s", strings.Join(bad, "; "))
	}
	return nil
}
