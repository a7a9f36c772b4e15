package events_test

import (
	"flag"
	"io"
	"testing"

	"repro/internal/obs"
)

// TestPathFlag: obs registers the one shared -events flag.
func TestPathFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := obs.Register(fs, "events")
	if err := fs.Parse([]string{"-events", "out.ndjson"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.Events != "out.ndjson" {
		t.Fatalf("flag value = %q", f.Events)
	}
}
