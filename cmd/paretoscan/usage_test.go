package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

// TestUsage pins the binary's flag names, defaults and usage strings:
// the golden file is its -h output without the "Usage of" line.
func TestUsage(t *testing.T) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag set drifted:\n%s\nwant:\n%s", got.String(), want)
	}
}
