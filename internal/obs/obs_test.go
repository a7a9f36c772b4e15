package obs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/converge"
	"repro/internal/provenance"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/trace"
)

// allOff turns every tier off for the test and restores the previous
// switches afterwards.
func allOff(t *testing.T) {
	t.Helper()
	t.Cleanup(telemetry.SetEnabled(false))
	t.Cleanup(trace.SetEnabled(false))
	t.Cleanup(events.SetEnabled(false))
	t.Cleanup(converge.SetEnabled(false))
	telemetry.Reset()
	events.Reset()
	trace.Reset()
	converge.Reset()
}

// TestRegister binds the shared flags under their names and leaves the
// unregistered ones zero.
func TestRegister(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, "telemetry", "events", "progress")
	if err := fs.Parse([]string{"-telemetry", "json", "-events", "out.ndjson", "-progress"}); err != nil {
		t.Fatal(err)
	}
	if f.Telemetry != "json" || f.Events != "out.ndjson" || !f.Progress {
		t.Fatalf("parsed flags = %+v", *f)
	}
	if fs.Lookup("trace") != nil || f.Trace != "" {
		t.Fatal("unrequested -trace was registered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an unknown flag name")
		}
	}()
	Register(flag.NewFlagSet("t", flag.ContinueOnError), "bogus")
}

// TestTelemetryModes: the empty mode is a no-op that leaves recording
// off, text and json enable recording and render their formats at
// Finish, and any other mode is rejected without flipping a switch.
func TestTelemetryModes(t *testing.T) {
	allOff(t)
	var stderr bytes.Buffer
	r, err := (&Flags{}).start("t", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.On() || trace.On() || events.On() || converge.On() {
		t.Fatal("empty flags enabled a tier")
	}
	if errs := r.Finish(nil); errs != nil || stderr.Len() != 0 {
		t.Fatalf("empty flags finished with %v, printed %q", errs, stderr.String())
	}

	for mode, marker := range map[string]string{"text": "== telemetry", "json": `"counters"`} {
		telemetry.SetEnabled(false)
		stderr.Reset()
		r, err := (&Flags{Telemetry: mode}).start("t", &stderr)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !telemetry.On() {
			t.Fatalf("%s mode did not enable telemetry", mode)
		}
		if errs := r.Finish(nil); errs != nil {
			t.Fatal(errs)
		}
		if !strings.Contains(stderr.String(), marker) {
			t.Fatalf("%s report missing %q:\n%s", mode, marker, stderr.String())
		}
	}

	telemetry.SetEnabled(false)
	if _, err := (&Flags{Telemetry: "xml", Events: "x.ndjson"}).start("t", io.Discard); err == nil {
		t.Fatal("Start accepted -telemetry xml")
	}
	if telemetry.On() || events.On() {
		t.Fatal("a rejected mode flipped a switch")
	}
}

// TestEventsPath: an empty -events path leaves logging off; a path
// enables it and Finish dumps the ring there as NDJSON.
func TestEventsPath(t *testing.T) {
	allOff(t)
	if _, err := (&Flags{}).start("t", io.Discard); err != nil {
		t.Fatal(err)
	}
	if events.On() {
		t.Fatal("empty -events enabled logging")
	}
	path := filepath.Join(t.TempDir(), "events.ndjson")
	r, err := (&Flags{Events: path}).start("t", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !events.On() {
		t.Fatal("-events did not enable logging")
	}
	events.New("drop.triggered").Int("core", 3).Emit()
	if errs := r.Finish(nil); errs != nil {
		t.Fatal(errs)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := events.ParseNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != "drop.triggered" {
		t.Fatalf("dump holds %+v", evs)
	}
}

// TestFinishWritesOnce: Finish writes every enabled artifact and
// registers it in the manifest under its SHA-256; an artifact that
// cannot be written is reported without stopping the others, and a
// second Finish (a later exit path) writes nothing.
func TestFinishWritesOnce(t *testing.T) {
	allOff(t)
	dir := t.TempDir()
	f := &Flags{
		Telemetry:   "json",
		Trace:       filepath.Join(dir, "trace.json"),
		Events:      filepath.Join(dir, "events.ndjson"),
		Convergence: filepath.Join(dir, "missing", "convergence.json"),
		Progress:    true,
		Chips:       4,
	}
	var stderr bytes.Buffer
	r, err := f.start("tool", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.On() || !trace.On() || !events.On() || !converge.On() {
		t.Fatal("flags did not enable their tiers")
	}
	trace.Child(trace.FromContext(r.Context(context.Background())), "stage").End()
	events.New("chip.drawn").Int("seed", 1).Emit()
	converge.Observe("test.obs", "x", 1)

	man := provenance.New("tool")
	errs := r.Finish(man)
	if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), "convergence: ") {
		t.Fatalf("Finish errors = %v, want one convergence error", errs)
	}
	out := stderr.String()
	if !strings.HasPrefix(out, "tool: chips=1/4") || !strings.Contains(out, `"counters"`) {
		t.Fatalf("stderr lacks the progress line or the report:\n%s", out)
	}

	want := map[string]string{"trace.json": f.Trace, "events.ndjson": f.Events}
	if len(man.Artifacts) != len(want) {
		t.Fatalf("manifest artifacts = %+v, want %d", man.Artifacts, len(want))
	}
	for _, a := range man.Artifacts {
		data, err := os.ReadFile(want[a.Name])
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		sum := sha256.Sum256(data)
		if a.Path != want[a.Name] || a.SHA256 != hex.EncodeToString(sum[:]) {
			t.Errorf("artifact %+v does not match %s", a, want[a.Name])
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]any
		}
	}
	data, _ := os.ReadFile(f.Trace)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name] = e.Args
		}
	}
	if len(spans) != 2 || spans["run"] == nil || spans["stage"]["parent"] != spans["run"]["span"] {
		t.Fatalf("trace.json spans = %v, want the stage nested in the run root", spans)
	}

	os.Remove(f.Trace)
	stderr.Reset()
	if errs := r.Finish(man); errs != nil || stderr.Len() != 0 || len(man.Artifacts) != 2 {
		t.Fatalf("second Finish did work: errs %v, stderr %q, %d artifacts", errs, stderr.String(), len(man.Artifacts))
	}
	if _, err := os.Stat(f.Trace); !os.IsNotExist(err) {
		t.Fatal("second Finish rewrote trace.json")
	}
}

// TestPprofServer: -pprof turns telemetry recording on for the live
// endpoints, and Finish stops the server.
func TestPprofServer(t *testing.T) {
	allOff(t)
	r, err := (&Flags{Pprof: "127.0.0.1:0"}).start("t", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.On() {
		t.Fatal("-pprof did not enable telemetry")
	}
	if errs := r.Finish(nil); errs != nil {
		t.Fatal(errs)
	}
	select {
	case <-r.serverExited:
	default:
		t.Fatal("Finish returned before the pprof server exited")
	}
}

// TestMount serves the three live endpoints with their content types
// and refuses anything but GET.
func TestMount(t *testing.T) {
	allOff(t)
	telemetry.SetEnabled(true)
	events.SetEnabled(true)
	telemetry.GetCounter("cache.test.obs.hits").Inc()
	events.New("chip.drawn").Int("seed", 7).Emit()

	mux := http.NewServeMux()
	Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, c := range []struct {
		path, contentType string
		check             func([]byte) error
	}{
		{"/telemetryz", "application/json", func(b []byte) error {
			var snap telemetry.Snapshot
			return json.Unmarshal(b, &snap)
		}},
		{"/metricsz", "text/plain; version=0.0.4; charset=utf-8", func(b []byte) error {
			if !strings.Contains(string(b), "cache_test_obs_hits 1") {
				return io.ErrUnexpectedEOF
			}
			return nil
		}},
		{"/eventsz", "application/x-ndjson; charset=utf-8", func(b []byte) error {
			_, err := events.ParseNDJSON(bytes.NewReader(b))
			return err
		}},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != c.contentType {
			t.Errorf("GET %s = %d %q, want 200 %q", c.path, resp.StatusCode, resp.Header.Get("Content-Type"), c.contentType)
		}
		if err := c.check(body); err != nil {
			t.Errorf("GET %s body: %v\n%s", c.path, err, body)
		}

		resp, err = http.Post(srv.URL+c.path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", c.path, resp.StatusCode)
		}
	}
}
