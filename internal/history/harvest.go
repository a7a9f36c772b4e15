package history

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/converge"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// This file maps every existing observability surface into the flat
// metric namespace a Record trends:
//
//	counter.<name>                      telemetry counters
//	gauge.<name>                        telemetry gauges
//	hist.<name>.{count,mean,p50,p95,p99,max}
//	win.<name>.<horizon>.{count,rate_per_sec,error_rate,p50,p95,p99}
//	cache.<name>.hit_rate               derived from cache.<name>.{hits,misses}
//	converge.<series>.{count,mean,std,ci95}
//	runner.<id>.wall_ms                 provenance runner timings
//	bench.<dotted json path>            numeric leaves of a BENCH_*.json blob
//
// The names are data, not code: they are record map keys, so the
// analysis catalog governs only the history.* self-accounting metrics
// this package emits through telemetry, not the harvested namespace.

// AddTelemetry folds a telemetry snapshot into the record.
func (r *Record) AddTelemetry(snap telemetry.Snapshot) {
	for _, c := range snap.Counters {
		r.Set("counter."+c.Name, float64(c.Value))
	}
	for _, g := range snap.Gauges {
		r.Set("gauge."+g.Name, float64(g.Value))
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		base := "hist." + h.Name + "."
		r.Set(base+"count", float64(h.Count))
		r.Set(base+"mean", h.Mean)
		r.Set(base+"p50", float64(h.P50))
		r.Set(base+"p95", float64(h.P95))
		r.Set(base+"p99", float64(h.P99))
		r.Set(base+"max", float64(h.Max))
	}
	for _, w := range snap.Windows {
		for _, h := range w.Horizons {
			if h.Count == 0 {
				continue
			}
			base := "win." + w.Name + "." + h.Label + "."
			r.Set(base+"count", float64(h.Count))
			r.Set(base+"rate_per_sec", h.RatePerSec)
			r.Set(base+"error_rate", h.ErrorRate)
			r.Set(base+"p50", float64(h.P50))
			r.Set(base+"p95", float64(h.P95))
			r.Set(base+"p99", float64(h.P99))
		}
	}
	r.addCacheRates(snap)
}

// addCacheRates derives cache.<name>.hit_rate from the hit/miss
// counter pairs the memo caches maintain.
func (r *Record) addCacheRates(snap telemetry.Snapshot) {
	telemetry.CacheCounts(snap.Counters, func(name string, hits, misses int64) {
		if total := hits + misses; total > 0 {
			r.Set("cache."+name+".hit_rate", float64(hits)/float64(total))
		}
	})
}

// AddConvergence folds a converge snapshot into the record. CI95 is
// recorded only once it is finite (two observations).
func (r *Record) AddConvergence(snap converge.Snapshot) {
	for _, s := range snap.Series {
		if s.Count == 0 {
			continue
		}
		base := "converge." + s.Name + "."
		r.Set(base+"count", float64(s.Count))
		r.Set(base+"mean", s.Mean)
		if s.Count >= 2 {
			r.Set(base+"std", s.Std)
			r.Set(base+"ci95", s.CI95)
		}
	}
}

// AddManifest folds a provenance manifest into the record: run
// identity (VCS revision, dirty flag, wall time, argv), per-runner
// wall times, and cache hit rates.
func (r *Record) AddManifest(m *provenance.Manifest) {
	if m == nil {
		return
	}
	if m.VCSRevision != "" {
		r.VCSRevision = m.VCSRevision
		r.VCSDirty = m.VCSModified
	}
	if m.WallMs > 0 {
		r.WallMs = m.WallMs
	}
	if len(m.Args) > 0 {
		r.Args = append([]string(nil), m.Args...)
	}
	for _, run := range m.Runners {
		if run.Error == "" {
			r.Set("runner."+run.ID+".wall_ms", float64(run.WallMs))
		}
	}
	for _, c := range m.Caches {
		if c.Hits+c.Misses > 0 {
			r.Set("cache."+c.Name+".hit_rate", c.HitRate)
		}
	}
}

// AddBenchJSON folds one BENCH_*.json document into the record. The
// top-level identity keys the bench harnesses stamp (vcs_revision,
// vcs_dirty, gomaxprocs) are lifted into the record's identity fields;
// every numeric leaf elsewhere lands under "bench." with its dotted
// path. Booleans become 0/1 so gates can trend them; strings and
// nulls carry no trendable value and are skipped.
func (r *Record) AddBenchJSON(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("history: bench blob: %w", err)
	}
	if rev, ok := doc["vcs_revision"].(string); ok && rev != "" {
		r.VCSRevision = rev
	}
	if dirty, ok := doc["vcs_dirty"].(bool); ok {
		r.VCSDirty = dirty
	}
	if gmp, ok := doc["gomaxprocs"].(float64); ok && gmp > 0 && !math.IsInf(gmp, 0) {
		r.GOMAXPROCS = int(gmp)
	}
	for _, k := range sortedKeys(doc) {
		switch k {
		case "vcs_revision", "vcs_dirty", "gomaxprocs":
			continue
		}
		flattenJSON(r, "bench."+k, doc[k])
	}
	return nil
}

// flattenJSON walks one JSON value, recording numeric leaves under
// dotted paths and array elements under numeric indices.
func flattenJSON(r *Record, path string, v any) {
	switch v := v.(type) {
	case float64:
		r.Set(path, v)
	case bool:
		if v {
			r.Set(path, 1)
		} else {
			r.Set(path, 0)
		}
	case map[string]any:
		for _, k := range sortedKeys(v) {
			flattenJSON(r, path+"."+k, v[k])
		}
	case []any:
		for i, el := range v {
			flattenJSON(r, fmt.Sprintf("%s.%d", path, i), el)
		}
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
