package analysis

import "strings"

// Config parameterizes every analyzer. Production runs use
// DefaultConfig; the golden-diagnostic tests build small configs
// pointed at seeded-violation testdata packages.
type Config struct {
	ModuleRoot string // absolute directory holding go.mod
	ModulePath string // module path from go.mod (e.g. "repro")

	// SimPackages are the module-relative package paths whose results
	// must be pure functions of (config, seed): the determinism and
	// seedhygiene analyzers police them. An entry covers the package
	// and all of its subpackages (so "internal/rms" covers every
	// kernel).
	SimPackages []string

	// LayeringRoot is the module-relative directory the import-DAG
	// matrix governs, and AllowedDeps maps each package under it
	// (relative to the root) to the packages it may import from under
	// the same root. Substrates may additionally never import, even
	// transitively via new edges, anything whose path ends in one of
	// SubstrateBans.
	LayeringRoot  string
	AllowedDeps   map[string][]string
	Substrates    []string
	SubstrateBans []string

	// FloatEqAllow lists functions (as "<module-relative pkg>.<func>",
	// methods as "(*T).M" / "(T).M") whose float ==/!= comparisons are
	// deliberate exact-key comparisons: cache keys built from exact
	// binary inputs, sort tie-breaks on already-rounded golden values,
	// exact-zero sentinels.
	FloatEqAllow map[string]bool

	// TelemetryExempt lists module-relative packages skipped by the
	// telemetrynames analyzer: the packages that *define* the metric
	// and event constructors necessarily handle names as variables.
	TelemetryExempt []string

	// Catalog is the registered telemetry/event name vocabulary.
	Catalog *Catalog

	// SuppressionBudget caps the total number of //lint:ignore
	// directives across a run; negative disables the cap.
	SuppressionBudget int
}

// rel strips the module path from an import path, returning ok=false
// for foreign (stdlib or external) paths.
func (c *Config) rel(pkgPath string) (string, bool) {
	if pkgPath == c.ModulePath {
		return ".", true
	}
	rest, ok := strings.CutPrefix(pkgPath, c.ModulePath+"/")
	return rest, ok
}

// isSimPackage reports whether the import path falls under one of the
// configured simulation roots.
func (c *Config) isSimPackage(pkgPath string) bool {
	rel, ok := c.rel(pkgPath)
	if !ok {
		return false
	}
	for _, sim := range c.SimPackages {
		if rel == sim || strings.HasPrefix(rel, sim+"/") {
			return true
		}
	}
	return false
}

// DefaultConfig returns the production configuration: the layering
// matrix (the source of truth layering_test.go now wraps), the
// simulation-package roster, and the exact-comparison allowlist.
// startDir seeds the module-root search (the driver passes ".").
func DefaultConfig(startDir string) (*Config, error) {
	root, modPath, err := ModuleRoot(startDir)
	if err != nil {
		return nil, err
	}
	return &Config{
		ModuleRoot: root,
		ModulePath: modPath,

		SimPackages: []string{
			"internal/chip",
			"internal/core",
			"internal/fault",
			"internal/rms",
			"internal/variation",
			"internal/sim",
			"internal/experiments",
			// The service core promises byte-identical responses for
			// identical requests, so it lives under the same rules: no
			// wall clock (injected via Config.Now), no global rand, no
			// goroutines (the daemon owns them all).
			"internal/service",
		},

		LayeringRoot: "internal",
		// Each internal package may import only the internal packages
		// listed here (stdlib is always allowed). This is the README's
		// layering promise; layering_test.go asserts it through this
		// table on every `go test ./...`.
		AllowedDeps: map[string][]string{
			"mathx":            {},
			"telemetry":        {},
			"telemetry/trace":  {"telemetry"},
			"telemetry/events": {"telemetry"},
			"converge":         {"telemetry"},
			"provenance":       {},
			"parallel":         {"telemetry", "telemetry/trace"},
			"tech":             {"mathx"},
			"variation":        {"mathx", "parallel", "telemetry", "telemetry/events"},
			"chip":             {"converge", "mathx", "parallel", "tech", "telemetry", "telemetry/events", "telemetry/trace", "variation"},
			"power":            {"chip"},
			"sim":              {"mathx"},
			"quality":          {},
			"fault":            {"mathx", "parallel", "telemetry/events"},
			"workload":         {"mathx"},
			"rms":              {"fault", "parallel", "quality", "sim", "telemetry/events"},
			"rms/canneal":      {"fault", "mathx", "rms", "sim", "workload"},
			"rms/ferret":       {"fault", "rms", "sim", "workload"},
			"rms/bodytrack":    {"fault", "mathx", "quality", "rms", "sim", "workload"},
			"rms/xh264":        {"fault", "mathx", "quality", "rms", "sim", "workload"},
			"rms/hotspot":      {"fault", "mathx", "quality", "rms", "sim", "workload"},
			"rms/srad":         {"fault", "mathx", "quality", "rms", "sim", "workload"},
			"rms/btcmine":      {"fault", "rms", "sim"},
			"rms/rmstest":      {"fault", "rms", "sim"},
			"core":             {"chip", "fault", "mathx", "parallel", "power", "rms", "sim", "tech", "telemetry/events", "telemetry/trace"},
			"atlas":            {"chip", "fault", "telemetry/events"},
			"baseline":         {"chip", "power"},
			"analysis":         {},
			"experiments": {"baseline", "chip", "core", "fault", "mathx", "parallel", "power",
				"rms", "rms/bodytrack", "rms/btcmine", "rms/canneal", "rms/ferret",
				"rms/hotspot", "rms/srad", "rms/xh264", "sim", "tech", "telemetry", "telemetry/trace", "variation"},
			"service": {"experiments", "provenance", "telemetry", "telemetry/events"},
			"history": {"converge", "provenance", "telemetry", "telemetry/events"},
			// The binaries' observability front door; nothing under
			// internal may import it.
			"obs": {"converge", "provenance", "telemetry", "telemetry/events", "telemetry/trace"},
		},
		// Substrate purity: the numeric substrate and the device models
		// must never know about chips, benchmarks, or the framework.
		Substrates:    []string{"mathx", "tech", "telemetry", "variation", "quality", "sim", "fault", "workload"},
		SubstrateBans: []string{"/chip", "/core", "/rms", "/power", "/baseline", "/experiments"},

		FloatEqAllow: map[string]bool{
			// Ledger report ordering tie-breaks on exact accumulated
			// sums so the worst-offender ranking is reproducible.
			"internal/fault.(*Ledger).Report": true,
			// Deterministic sort tie-breaks: equal keys must compare
			// exactly equal or the ordering depends on evaluation order.
			"internal/rms/ferret.(*Benchmark).Run": true,
			"internal/sim.(eventQueue).Less":       true,
			// CorruptValue returns either the bit-identical original or
			// different bits; the inequality detects corruption exactly.
			"internal/rms/btcmine.(*Benchmark).Run": true,
			// The rmstest harness pins bit-identical replay — tolerance
			// would defeat its purpose.
			"internal/rms/rmstest.determinism": true,
		},

		TelemetryExempt: []string{"internal/telemetry", "internal/telemetry/events"},

		Catalog: DefaultCatalog(),

		// Every suppression is a justified debt. The tree carries a
		// small number today (wall-clock provenance timing); leave a
		// little headroom, not an open door.
		SuppressionBudget: 8,
	}, nil
}
