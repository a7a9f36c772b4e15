package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/history"
)

// TestMain serves the start-up timing children paper-cold launches
// from the test binary: they exit before running anything.
func TestMain(m *testing.M) {
	if os.Getenv(startupEnv) == "1" {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples: want a refusal, 9 samples lie beyond it")
	}
	if v, err := tailPercentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := tailPercentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples: want a refusal")
	}
	if v, err := tailPercentile(xs[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "experiments.fig6", parent: -1, start: 0, end: 10 * ms},
		// Overlapping children count once; one reaching past its
		// parent counts only inside it.
		{name: "core.solve", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "chip.draw", parent: 0, start: 2 * ms, end: 5 * ms},
		{name: "core.solve", parent: 0, start: 8 * ms, end: 12 * ms},
	}
	self := selfTimes(spans)
	if self[0] != 4*ms {
		t.Errorf("parent self = %v, want 4ms (10ms minus [1,5] and [8,10])", self[0])
	}
	if self[1] != 2*ms || self[2] != 3*ms {
		t.Errorf("leaf self times = %v, %v; want their durations", self[1], self[2])
	}
}

func TestUnattributedIsTheRemainder(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "workload.build", parent: -1, start: 1 * ms, end: 3 * ms},
		{name: "experiments.fig1a", parent: -1, start: 4 * ms, end: 9 * ms},
		{name: "chip.draw", parent: 1, start: 5 * ms, end: 6 * ms},
	}
	a := attribute(spans, 10*ms)
	if a.unattributed != 3*ms {
		t.Errorf("unattributed = %v, want 3ms of a 10ms wall", a.unattributed)
	}
	if a.byLayer["experiments"] != 4*ms || a.byLayer["chip"] != ms || a.byLayer["workload"] != 2*ms {
		t.Errorf("layer self times = %v", a.byLayer)
	}
}

func TestRecorderClipsAddedSpansToTheirParent(t *testing.T) {
	r := newRecorder()
	r.spans = []span{{name: "service.http", parent: -1, start: 10, end: 20}}
	i := r.add("service.run", 0, 15, 30)
	if s := r.spans[i]; s.start != 15 || s.end != 20 {
		t.Errorf("clipped span = [%v, %v], want [15, 20]", s.start, s.end)
	}
}

func TestServiceRequestsAreDeterministic(t *testing.T) {
	c := defaultConfig("service-warm", 7, time.Second)
	repeats := 0
	for i := 0; i < 500; i++ {
		body, target := c.request(i)
		again, _ := c.request(i)
		if !bytes.Equal(body, again) {
			t.Fatalf("request %d differs between calls", i)
		}
		if target == i {
			continue
		}
		repeats++
		if d := i - target; d < 1 || d > repeatWindow {
			t.Fatalf("request %d repeats request %d, outside the %d-request window", i, target, repeatWindow)
		}
		if i < repeatWindow {
			t.Fatalf("request %d repeats before the first %d requests are sent", i, repeatWindow)
		}
		if fresh, _ := c.request(target); !bytes.Equal(body, fresh) {
			t.Fatalf("request %d does not repeat request %d's body", i, target)
		}
	}
	if repeats < 100 || repeats > 200 {
		t.Errorf("%d repeats in 500 requests, want about 30%%", repeats)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// smallConfig shrinks a workload to seconds of work, under a seed
// with no committed digests.
func smallConfig(workload string) *config {
	c := defaultConfig(workload, 99991, time.Second)
	c.setups = 1
	c.ids = []string{"fig1a", "table2", "fig5b"}
	c.kernels = []string{"hotspot"}
	c.chips = 8
	c.minReps = 1
	c.warmup = []string{"fig5b"}
	c.mix = []share{{"", 1}, {"fig5b", 3}}
	c.requests = 40
	c.digestRequests = 40
	c.traceRequests = 40
	switch workload {
	case "population-mc":
		c.kernels = []string{"canneal"}
	}
	return c
}

func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; population-mc profiles canneal")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			res, err := workloads[w.Name](smallConfig(w.Name), trace == 1)
			if err != nil {
				t.Fatalf("%s -trace %d: %v", w.Name, trace, err)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Fatalf("%s -trace %d printed %q: %v", w.Name, trace, buf.String(), err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d, flags %q",
					w.Name, trace, out.Correct, out.Attempted, out.Failed, res.flags)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s -trace %d printed %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %d: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestDocumentFeedsTheHistoryGate(t *testing.T) {
	dir := t.TempDir()
	st := environment("paper-cold", 1, 0)
	st.VCSRevision = "abc123"
	store := history.Store{Dir: filepath.Join(dir, "store")}
	for i, wall := range []float64{10.1, 10.3} {
		res := newResult()
		res.attempted = 2
		res.set("wall_s", wall, "s")
		res.detail["wall_s"] = []float64{wall, wall}
		path := filepath.Join(dir, "result.json")
		if err := writeDocument(path, st, res); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := history.NewRecord("perfbench.paper-cold", "bench")
		if err := rec.AddBenchJSON(data); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rec.VCSRevision != "abc123" || rec.GOMAXPROCS != st.GOMAXPROCS {
			t.Errorf("stamp not lifted: revision %q gomaxprocs %d", rec.VCSRevision, rec.GOMAXPROCS)
		}
		if rec.Metrics["bench.metrics.wall_s"] != wall || rec.Metrics["bench.detail.wall_s.1"] != wall {
			t.Errorf("numeric leaves not harvested: %v", rec.Metrics)
		}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := history.Check(recs, history.DefaultDirections(), history.GateConfig{})
	if err != nil || rep.Regressions() != 0 {
		t.Errorf("gate over two runs: %v, %d regressions", err, rep.Regressions())
	}
}
