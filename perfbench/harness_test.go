package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/runlog"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/workloads"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{0, 0, false}, {10, 0, false}, {19, 0, false},
		{20, 50, true}, {21, 52, true}, {38, 73, true}, {40, 75, true},
		{100, 90, true}, {375, 97, true}, {1000, 99, true}, {5000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok {
			if beyond := c.n - nearestRank(c.n, p); beyond < tailBeyond {
				t.Errorf("n=%d p%d leaves %d samples beyond", c.n, p, beyond)
			}
			if p < 99 && c.n-nearestRank(c.n, p+1) >= tailBeyond {
				t.Errorf("n=%d: p%d also keeps %d beyond, so p%d is not the highest", c.n, p+1, tailBeyond, p)
			}
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Fatalf("tail(1..40) = %v at p%d, want 30 at p75", v, p)
	}
	if v, p := tail([]float64{3, 9, 1}); v != 9 || p != 100 {
		t.Fatalf("tail of 3 samples = %v at p%d, want the maximum 9 at p100", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestTamperedReplayLogIsCounted(t *testing.T) {
	logs := []string{outerLabel + ": epoch=0 norm=1", "metrics: epoch=0", outerLabel + ": epoch=1 norm=2", "metrics: epoch=1"}
	var ref []string
	b := newBench(config{}, io.Discard)
	b.attempt("first", checkReplay(&replay.Result{Logs: logs}, outerLabel, 2, &ref))
	b.attempt("same", checkReplay(&replay.Result{Logs: append([]string(nil), logs...)}, outerLabel, 2, &ref))
	tampered := append([]string(nil), logs...)
	tampered[2] = outerLabel + ": epoch=1 norm=2.5"
	b.attempt("tampered", checkReplay(&replay.Result{Logs: tampered}, outerLabel, 2, &ref))
	b.attempt("missing probe", checkReplay(&replay.Result{Logs: logs[:3]}, outerLabel, 2, &ref))
	b.attempt("anomaly", checkReplay(&replay.Result{Logs: logs, Anomalies: []runlog.Anomaly{{}}}, outerLabel, 2, &ref))
	if b.attempted != 5 || len(b.failures) != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3: %v", b.attempted, len(b.failures), b.failures)
	}
	res := b.finish()
	if res.Correct || res.Failed != 3 {
		t.Fatalf("result %+v should be incorrect with 3 failures", res)
	}
}

func TestFlordFailuresAreCounted(t *testing.T) {
	run := &flordRun{id: "r", prog: program{epochs: 4},
		replayRef: []string{"a", "b"},
		iterRef:   map[int][]string{0: {"i0"}, 1: {"i1"}, 2: {"i2"}, 3: {"i3"}}}
	runs := []*flordRun{run}
	status, replayLogs, sampleLogs := http.StatusOK, []string{"a", "b"}, []string{"i1", "i3"}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		if strings.HasSuffix(r.URL.Path, "/replay") {
			_ = json.NewEncoder(w).Encode(serve.ReplayResponse{Logs: replayLogs})
			return
		}
		_ = json.NewEncoder(w).Encode(serve.SampleResponse{Logs: sampleLogs})
	}))
	defer ts.Close()
	d := &daemon{base: ts.URL, client: ts.Client()}
	b := newBench(config{}, io.Discard)
	query := func(what string, rq flordReq) {
		_, err := d.query(rq, runs)
		b.attempt(what, err)
	}
	query("good replay", flordReq{replay: true})
	query("good sample", flordReq{iters: []int{3, 1, 3}})
	sampleLogs = []string{"i1", "i2"}
	query("tampered sample", flordReq{iters: []int{3, 1}})
	replayLogs = []string{"a", "B"}
	query("tampered replay", flordReq{replay: true})
	status, replayLogs = http.StatusInternalServerError, []string{"a", "b"}
	query("HTTP 500", flordReq{replay: true})
	if b.attempted != 5 || len(b.failures) != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3: %v", b.attempted, len(b.failures), b.failures)
	}
	if !strings.Contains(b.failures[2], "HTTP 500") {
		t.Fatalf("non-200 failure not reported as such: %q", b.failures[2])
	}
}

func TestRequestsDependOnlyOnSeed(t *testing.T) {
	runs := []*flordRun{{prog: program{epochs: 200}}, {prog: program{epochs: 200}}}
	a, b := genRequests(7, 400, runs), genRequests(7, 400, runs)
	c := genRequests(8, 400, runs)
	same := func(x, y []flordReq) bool {
		for i := range x {
			if x[i].run != y[i].run || x[i].replay != y[i].replay || len(x[i].iters) != len(y[i].iters) {
				return false
			}
			for j := range x[i].iters {
				if x[i].iters[j] != y[i].iters[j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed gave different requests")
	}
	if same(a, c) {
		t.Fatal("different seeds gave the same requests")
	}
	replays := 0
	for i, r := range a {
		if r.replay {
			replays++
			continue
		}
		if len(r.iters) != flordSampleIters {
			t.Fatalf("request %d samples %d iterations", i, len(r.iters))
		}
	}
	if replays*flordMixBlock != len(a) {
		t.Fatalf("%d replays in %d requests, want a 1:%d share", replays, len(a), flordMixBlock-1)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer()
	p := tr.add("parent", 0, 1, 0, 100)
	tr.add("child", p, 1, 10, 40)
	tr.add("child", p, 1, 30, 60) // overlaps the first child
	tr.add("child", p, 1, 90, 120)
	for _, r := range tr.table() {
		if r.Name == "parent" && r.SelfMs != float64(100-60)/1e6 {
			t.Fatalf("parent self time %v ms, want %v", r.SelfMs, float64(40)/1e6)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadRunners) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloadRunners))
	}
	for _, w := range spec.Workloads {
		if workloadRunners[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmokePass runs every workload at smoke scale, untraced and traced:
// each must check its outputs, report every metric, and pass the traced
// run's consistency checks.
func TestSmokePass(t *testing.T) {
	for _, w := range []string{"record", "replay-rsnt", "replay-cifr", "flord-remote"} {
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			cfg := config{workload: w, seed: 3, seconds: 0.3, trace: traced, scale: workloads.Smoke,
				setups: 2, workDir: t.TempDir()}
			t0 := time.Now()
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v\n%s", w, traced, res, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s: %d metrics, want %d", w, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || (!traced && m.Value <= 0) {
					t.Errorf("%s: metric %s = %+v", w, d.Name, m)
				}
			}
			if strings.Contains(out.String(), "VIOLATION") {
				t.Errorf("%s: consistency check failed:\n%s", w, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w, err)
			}
			t.Logf("%s traced=%v: %d attempted in %v", w, traced, res.Attempted, time.Since(t0))
		}
	}
}
