package converge

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestWelford pins the streaming mean/variance against the closed
// form on a small fixed sample.
func TestWelford(t *testing.T) {
	defer SetEnabled(true)()
	Reset()
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		Observe("test.welford", "x", v)
	}
	s := Get("test.welford", "x").snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	// Sample std of the classic example: sqrt(32/7).
	wantStd := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
	wantCI := 1.959963984540054 * wantStd / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("ci95 = %v, want %v", s.CI95, wantCI)
	}
	if math.Abs(s.RelCI95-wantCI/5) > 1e-12 {
		t.Fatalf("rel ci95 = %v, want %v", s.RelCI95, wantCI/5)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

// TestDisabledNoRecord: observations while disabled are dropped.
func TestDisabledNoRecord(t *testing.T) {
	defer SetEnabled(false)()
	Reset()
	Observe("test.disabled", "x", 1)
	for _, s := range Capture().Series {
		if s.Name == "test.disabled" {
			t.Fatal("disabled Observe registered a series")
		}
	}
}

// TestConvergeDisabledOverhead mirrors TestTelemetryDisabledOverhead:
// the disabled path must not allocate.
func TestConvergeDisabledOverhead(t *testing.T) {
	defer SetEnabled(false)()
	allocs := testing.AllocsPerRun(1000, func() {
		Observe("test.overhead", "x", 3.14)
	})
	if allocs != 0 {
		t.Fatalf("disabled Observe allocates %v per call, want 0", allocs)
	}
}

// TestConcurrentObserve: concurrent observers lose nothing.
func TestConcurrentObserve(t *testing.T) {
	defer SetEnabled(true)()
	Reset()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Observe("test.concurrent", "x", 1)
			}
		}()
	}
	wg.Wait()
	if n := Get("test.concurrent", "x").Count(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
}

// TestCaptureJSON: convergence.json carries the documented keys and is
// valid JSON.
func TestCaptureJSON(t *testing.T) {
	defer SetEnabled(true)()
	Reset()
	Observe("test.json", "GHz", 1.5)
	Observe("test.json", "GHz", 2.5)
	var buf bytes.Buffer
	if err := Capture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Enabled bool `json:"enabled"`
		Series  []map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("convergence.json is not valid JSON: %v", err)
	}
	if !doc.Enabled {
		t.Fatal("enabled = false in capture while enabled")
	}
	var found map[string]any
	for _, s := range doc.Series {
		if s["name"] == "test.json" {
			found = s
		}
	}
	if found == nil {
		t.Fatal("series missing from capture")
	}
	for _, key := range []string{"unit", "count", "mean", "std", "ci95_half_width", "rel_ci95", "min", "max"} {
		if _, ok := found[key]; !ok {
			t.Errorf("convergence.json series missing key %q", key)
		}
	}
	if found["ci95_half_width"].(float64) <= 0 {
		t.Fatal("ci95_half_width not positive after two observations")
	}
}

// TestResetPreservesIdentity: Reset zeroes counts but keeps the series
// pointer, so long-lived references stay valid.
func TestResetPreservesIdentity(t *testing.T) {
	defer SetEnabled(true)()
	s := Get("test.reset", "x")
	Observe("test.reset", "x", 7)
	Reset()
	if s != Get("test.reset", "x") {
		t.Fatal("Reset replaced the series")
	}
	if s.Count() != 0 {
		t.Fatal("Reset did not zero the count")
	}
}

// TestProgressLine: the -progress line reports done/target, an ETA,
// and per-series mean±CI.
func TestProgressLine(t *testing.T) {
	defer SetEnabled(true)()
	Reset()
	for i := 0; i < 50; i++ {
		Observe("test.progress", "W", 2.0)
	}
	line := ProgressLine(100, 2*time.Second)
	for _, want := range []string{"chips=50/100", "elapsed=2s", "eta=2s", "test.progress"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %s", want, line)
		}
	}
	// No target: no /target, no eta.
	line = ProgressLine(0, time.Second)
	if strings.Contains(line, "eta=") || strings.Contains(line, "/") {
		t.Errorf("untargeted progress line carries target fields: %s", line)
	}
}

// TestGaugeMirror: observations surface as telemetry gauges (which
// record only while telemetry itself is also enabled).
func TestGaugeMirror(t *testing.T) {
	defer SetEnabled(true)()
	defer telemetry.SetEnabled(true)()
	Reset()
	Observe("test.mirror", "x", 1)
	Observe("test.mirror", "x", 3)
	mirrored := telemetryGaugeValue(t, "converge.test.mirror.count")
	if mirrored != 2 {
		t.Fatalf("telemetry gauge = %d, want 2", mirrored)
	}
	if mean := telemetryGaugeValue(t, "converge.test.mirror.mean_micro"); mean != 2_000_000 {
		t.Fatalf("mean_micro gauge = %d, want 2000000", mean)
	}
}

// TestEtaFor pins the ETA guard table: no estimate without a target,
// without progress, at/past the target, or below timer resolution —
// and a sane linear extrapolation otherwise.
func TestEtaFor(t *testing.T) {
	cases := []struct {
		name    string
		done    int64
		target  int
		elapsed time.Duration
		want    time.Duration
		ok      bool
	}{
		{"no target", 5, 0, time.Second, 0, false},
		{"negative target", 5, -3, time.Second, 0, false},
		{"nothing done", 0, 100, time.Second, 0, false},
		{"zero elapsed", 10, 100, 0, 0, false},
		{"negative elapsed", 10, 100, -time.Second, 0, false},
		{"at target", 100, 100, time.Second, 0, false},
		{"past target", 150, 100, time.Second, 0, false},
		{"halfway", 50, 100, 10 * time.Second, 10 * time.Second, true},
		{"one done", 1, 4, time.Second, 3 * time.Second, true},
		{"overflow", 1, math.MaxInt32, math.MaxInt64, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := etaFor(tc.done, tc.target, tc.elapsed)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("etaFor(%d, %d, %s) = (%s, %v), want (%s, %v)",
					tc.done, tc.target, tc.elapsed, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestProgressLineNeverNaN: the edge cases the ETA guard exists for —
// zero chips done and sub-resolution wall time — must render clean
// lines with no NaN/Inf and no ETA.
func TestProgressLineNeverNaN(t *testing.T) {
	defer SetEnabled(true)()
	Reset()
	defer Reset()

	// Zero chips done, target set.
	for _, elapsed := range []time.Duration{0, time.Nanosecond, time.Second} {
		line := ProgressLine(100, elapsed)
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Fatalf("progress line with no chips contains NaN/Inf: %q", line)
		}
		if strings.Contains(line, "eta=") {
			t.Fatalf("progress line with no chips prints an ETA: %q", line)
		}
	}

	// Chips done but wall time below timer resolution.
	Observe("chip.fmax_ghz", "GHz", 1.0)
	line := ProgressLine(100, 0)
	if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
		t.Fatalf("sub-resolution progress line contains NaN/Inf: %q", line)
	}
	if strings.Contains(line, "eta=") {
		t.Fatalf("sub-resolution progress line prints an ETA: %q", line)
	}
	// With real elapsed time the ETA returns.
	line = ProgressLine(100, time.Second)
	if !strings.Contains(line, "eta=") {
		t.Fatalf("progress line with progress and elapsed lost its ETA: %q", line)
	}
}
