package repro_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// layeringRun loads and analyzes ./internal/... once; both tests below
// read the shared result (a full source-importer load costs seconds).
var layeringRun = sync.OnceValues(func() (analysis.Result, error) {
	cfg, err := analysis.DefaultConfig(".")
	if err != nil {
		return analysis.Result{}, err
	}
	return analysis.Run(cfg, []string{"./internal/..."})
})

// The README promises strict layering. The matrix lives in
// internal/analysis/config.go and is enforced by accordionvet's
// layering analyzer (`go run ./cmd/accordionvet ./...`, the CI lint
// job); this test is a thin wrapper that runs the same analyzer under
// `go test ./...`, so the promise stays an invariant even for
// contributors who never run the linter.
func TestInternalLayering(t *testing.T) {
	cfg, err := analysis.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.AllowedDeps) < 15 {
		t.Fatalf("layering matrix lists only %d internal packages", len(cfg.AllowedDeps))
	}
	// obs is the binaries' observability front door: it sits above the
	// tiers, and no internal package may import it.
	if _, ok := cfg.AllowedDeps["obs"]; !ok {
		t.Error("layering matrix has no obs entry")
	}
	for pkg, deps := range cfg.AllowedDeps {
		if slices.Contains(deps, "obs") {
			t.Errorf("%s may import obs; only cmd binaries may", pkg)
		}
	}
	res, err := layeringRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer == "layering" {
			t.Errorf("%s", d)
		}
	}
}

// Substrate purity: the numeric substrate and the device models must
// never know about chips, benchmarks, or the framework. The ban list
// also lives in the analyzer config; this wrapper pins that the config
// actually names the substrates (an emptied list would silently pass).
func TestSubstratesStayPure(t *testing.T) {
	cfg, err := analysis.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mathx", "tech", "telemetry", "variation", "quality", "sim", "fault", "workload"} {
		found := false
		for _, s := range cfg.Substrates {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("substrate %q missing from the analyzer config", want)
		}
	}
	res, err := layeringRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer == "layering" && strings.Contains(d.Message, "substrate") {
			t.Errorf("%s", d)
		}
	}
}
