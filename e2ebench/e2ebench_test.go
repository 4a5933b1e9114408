package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"repro"
)

func TestPercentileReportsSamplesAbove(t *testing.T) {
	s := sample{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		p     float64
		want  float64
		above int
	}{{0, 1, 9}, {50, 5.5, 5}, {90, 9.1, 1}, {100, 10, 0}} {
		v, above := s.percentile(tc.p)
		if math.Abs(v-tc.want) > 1e-12 || above != tc.above {
			t.Errorf("p%g = %g with %d above, want %g with %d", tc.p, v, above, tc.want, tc.above)
		}
	}
	if v, n := (sample{}).percentile(50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty sample: got %g, %d", v, n)
	}
	if m := (sample{3, 1, 2}).median(); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "d", Start: 60, End: 65},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 30, 4: 5, 5: 5} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if got := sum["root"].SelfS; math.Abs(got-50e-9) > 1e-18 {
		t.Errorf("summarized root self = %g s", got)
	}
	// A child that sticks out of its parent counts only inside it.
	out := selfTimes([]span{{ID: 1, Start: 0, End: 100}, {ID: 2, Parent: 1, Start: 90, End: 120}})
	if out[1] != 90 {
		t.Errorf("self with protruding child = %d, want 90", out[1])
	}
}

func TestValidateSpansChecksParentLinks(t *testing.T) {
	good := []span{
		{ID: 1, Name: "job", Req: "r1", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "queue", Req: "r1", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "solve", Req: "r1", Start: 10, End: 100},
	}
	if err := validateSpans(good); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"missing parent": {{ID: 1, Start: 0, End: 1}, {ID: 2, Parent: 7, Start: 0, End: 1}},
		"parent after":   {{ID: 1, Parent: 2, Start: 0, End: 1}, {ID: 2, Start: 0, End: 1}},
		"request differs": {{ID: 1, Req: "a", Start: 0, End: 9},
			{ID: 2, Parent: 1, Req: "b", Start: 1, End: 2}},
		"outside parent": {{ID: 1, Start: 5, End: 9}, {ID: 2, Parent: 1, Start: 1, End: 6}},
		"negative":       {{ID: 1, Start: 5, End: 4}},
		"duplicate id":   {{ID: 1, Start: 0, End: 1}, {ID: 1, Start: 0, End: 1}},
	} {
		if err := validateSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRecorderBuildsValidTree(t *testing.T) {
	rec := &recorder{}
	root := rec.begin("learn", 0, "")
	rec.wrap("child", root, func() {})
	rec.end(root)
	if err := validateSpans(rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var none *recorder
	if id := none.wrap("x", 0, func() {}); id != 0 || none.snapshot() != nil {
		t.Error("nil recorder recorded a span")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricCatalogMatchesBenchmarkJSON holds the metric names to the
// allowed charset and the catalog to BENCHMARK.json, name and unit.
func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q unknown or badly named", w.Name)
		}
	}
	for _, pair := range []struct {
		code, file []metricDef
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if fmt.Sprint(pair.code) != fmt.Sprint(pair.file) {
			t.Errorf("catalog %v\ndiffers from BENCHMARK.json %v", pair.code, pair.file)
		}
		for _, m := range pair.code {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q breaks the charset", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

func TestCheckLearnFiresOnCorruptResults(t *testing.T) {
	dag := least.GenerateDAG(3, least.ErdosRenyi, 8, 2)
	good := func() *least.Result { return &least.Result{Weights: dag.W.Clone()} }
	if f1, err := checkLearn(good(), dag, 0.5); err != nil || f1 != 1 {
		t.Fatalf("true weights: F1 %g, %v", f1, err)
	}
	nan := good()
	nan.Weights.Set(0, 1, math.NaN())
	cyclic := good()
	e := dag.G.Edges()[0]
	cyclic.Weights.Set(e.To, e.From, 1)
	empty := &least.Result{Weights: least.NewMatrix(8, 8)}
	for name, res := range map[string]*least.Result{"nan": nan, "cyclic": cyclic, "empty": empty, "nil": nil} {
		if _, err := checkLearn(res, dag, 0.5); err == nil {
			t.Errorf("%s result passed the check", name)
		}
	}
}

func TestCheckBatchRowsFiresOnSplitTwins(t *testing.T) {
	page := `{"total":4,"tasks":[
		{"label":"t000a","state":"done","job":"n0.j1"},{"label":"t000b","state":"done","job":"n0.j1"},
		{"label":"t001a","state":"done","job":"n0.j2"},{"label":"t001b","state":"%s","job":"%s"}]}`
	for _, tc := range []struct {
		state, job string
		failed     int
	}{{"done", "n0.j2", 0}, {"done", "n1.j9", 1}, {"failed", "n0.j2", 1}} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, page, tc.state, tc.job)
		}))
		o := newOutcome()
		checkBatchRows(srv.Client(), srv.URL, "b1", 4, o)
		srv.Close()
		if o.attempted != 4 || o.failed != tc.failed {
			t.Errorf("twin %s/%s: %d of %d failed, want %d", tc.state, tc.job, o.failed, o.attempted, tc.failed)
		}
	}
}
