package telemetry_test

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// The -telemetry flag is bound and acted on by obs, the binaries'
// observability front door; these tests pin the flag's contract from
// the telemetry side.

// startTelemetry parses args into a -telemetry flag bound by obs and
// starts the run with os.Stderr redirected to a temp file. It returns
// the run and a function that reads what the run printed there.
func startTelemetry(t *testing.T, args ...string) (*obs.Run, func() string, error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := obs.Register(fs, "telemetry")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	t.Cleanup(func() { tmp.Close() })
	r, err := f.Start("t")
	return r, func() string {
		data, err := os.ReadFile(tmp.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}, err
}

// TestModeFlag: obs registers the one shared -telemetry flag.
func TestModeFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := obs.Register(fs, "telemetry")
	if err := fs.Parse([]string{"-telemetry", "json"}); err != nil {
		t.Fatal(err)
	}
	if f.Telemetry != "json" {
		t.Fatalf("mode = %q, want json", f.Telemetry)
	}
}

// TestStartModeEmpty: the empty mode is a valid no-op that does not
// enable recording.
func TestStartModeEmpty(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	r, stderr, err := startTelemetry(t)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.On() {
		t.Fatal("empty mode enabled telemetry")
	}
	if errs := r.Finish(nil); errs != nil {
		t.Fatal(errs)
	}
	if out := stderr(); out != "" {
		t.Fatalf("empty mode reported %q", out)
	}
}

// TestStartModeTextJSON: both real modes enable recording and render
// their respective formats.
func TestStartModeTextJSON(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	for mode, marker := range map[string]string{"text": "== telemetry", "json": `"counters"`} {
		telemetry.SetEnabled(false)
		r, stderr, err := startTelemetry(t, "-telemetry", mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !telemetry.On() {
			t.Fatalf("%s mode did not enable telemetry", mode)
		}
		if errs := r.Finish(nil); errs != nil {
			t.Fatal(errs)
		}
		if out := stderr(); !strings.Contains(out, marker) {
			t.Fatalf("%s report missing %q:\n%s", mode, marker, out)
		}
	}
}

// TestStartModeInvalid rejects anything but text/json/empty.
func TestStartModeInvalid(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	if _, _, err := startTelemetry(t, "-telemetry", "xml"); err == nil {
		t.Fatal("Start accepted -telemetry xml")
	}
}
