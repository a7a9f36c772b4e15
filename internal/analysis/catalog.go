package analysis

import "strings"

// Catalog is the checked-in vocabulary of telemetry metric names and
// domain event kinds. The telemetrynames analyzer refuses any
// GetCounter/GetGauge/GetHistogram/GetWindow or events.New call whose
// name is not (a) a string literal matching ^[a-z0-9_.]+$ registered
// here, or (b) a concatenation whose literal prefix is registered
// here. That keeps the /metricsz namespace and the event-kind
// vocabulary (what CI smoke gates and jq pipelines key on) from
// drifting or colliding one emit site at a time: adding a name means
// touching this file, which means the diff shows the vocabulary grew.
type Catalog struct {
	// Metrics are exact telemetry counter/gauge/histogram/window names.
	Metrics map[string]bool
	// MetricPrefixes cover families with a dynamic tail, e.g. the
	// per-cache counters "cache.<Name>.hits".
	MetricPrefixes []string
	// Events are exact domain event kinds.
	Events map[string]bool
	// EventPrefixes cover event families with a dynamic tail (none
	// today; the event vocabulary is deliberately closed).
	EventPrefixes []string
}

// DefaultCatalog returns the repository's registered vocabulary.
func DefaultCatalog() *Catalog {
	return &Catalog{
		Metrics: set(
			// parallel pool
			"parallel.tasks.submitted",
			"parallel.tasks.completed",
			"parallel.panics_recovered",
			"parallel.pool.width",
			"parallel.queue.wait_ns",
			"parallel.worker.busy_ns",
			// chip factory
			"chip.factory.chips_drawn",
			"chip.factory.draw_ns",
			// field sampling (dense + circulant share one histogram)
			"variation.sample_ns",
			// observability tiers' self-accounting
			"events.emitted",
			"events.dropped",
			"trace.dropped",
			// accordiond job queue
			"service.requests",
			"service.rejected",
			"service.coalesced",
			"service.inflight",
			"service.latency_ns",
			"service.run_ns",
			// accordiond SLO burn gauges
			"service.slo.p99_burn_milli",
			"service.slo.error_burn_milli",
			// run-history store and regression gate
			"history.appends",
			"history.gate.checks",
			"history.gate.regressions",
		),
		MetricPrefixes: []string{
			"cache.",           // cache.<Name>.{hits,misses,evictions}
			"converge.",        // converge.<series>.{count,mean_u,ci95_u}
			"experiments.run.", // experiments.run.<experiment id>
		},
		Events: set(
			"chip.drawn",
			"front.measured",
			"quality.scored",
			"fault.injected",
			"drop.triggered",
			"field.sampled",
			"atlas.built",
			// accordiond ops surface
			"service.request",
			"job.state",
			// run-history store and regression gate
			"history.appended",
			"history.checked",
		),
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// lookupExact reports whether name is registered, either exactly or
// under a prefix family.
func lookupExact(name string, exact map[string]bool, prefixes []string) bool {
	if exact[name] {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// lookupPrefix reports whether lit is a registered prefix family (or
// extends one: "experiments.run." is fine even if only "experiments."
// were registered the other way around).
func lookupPrefix(lit string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(lit, p) {
			return true
		}
	}
	return false
}
