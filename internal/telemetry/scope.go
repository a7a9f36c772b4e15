package telemetry

import (
	"context"
	"strings"
	"sync"
)

// Scope attributes recordings to one unit of work — the accordiond
// server opens one per job — so concurrent jobs can each report their
// own cache hits and misses instead of reading the shared
// process-wide totals. A scoped recording always lands in the global
// metric first (the process totals stay authoritative) and then
// tallies into the scope, so for any counter the global delta over an
// interval equals the sum of the scoped tallies plus whatever
// unscoped call sites recorded.
//
// Scope methods are safe for concurrent use: the work a scope covers
// typically fans out across the parallel pool's goroutines. A nil
// *Scope is a valid no-op receiver everywhere, so unscoped callers
// (the CLI, tests) pay nothing.
type Scope struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewScope returns an empty scope ready to receive attributions.
func NewScope() *Scope { return &Scope{} }

// addCounter tallies n against name inside the scope.
func (sc *Scope) addCounter(name string, n int64) {
	sc.mu.Lock()
	if sc.counters == nil {
		sc.counters = make(map[string]int64)
	}
	sc.counters[name] += n
	sc.mu.Unlock()
}

// CounterValue returns the scope's tally for the named counter.
// Nil-safe.
func (sc *Scope) CounterValue(name string) int64 {
	if sc == nil {
		return 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.counters[name]
}

// Counters returns the scope's counter tallies sorted by name.
// Nil-safe.
func (sc *Scope) Counters() []CounterSnapshot {
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(sc.counters))
	for _, n := range sortedNames(sc.counters) {
		out = append(out, CounterSnapshot{Name: n, Value: sc.counters[n]})
	}
	return out
}

// AddScoped increments the counter globally and tallies the increment
// into sc. Both receiver and scope are nil-safe; a disabled switch
// records nowhere.
func (c *Counter) AddScoped(sc *Scope, n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
	if sc != nil {
		sc.addCounter(c.name, n)
	}
}

// IncScoped is AddScoped by one.
func (c *Counter) IncScoped(sc *Scope) { c.AddScoped(sc, 1) }

// CacheCounts folds the memo caches' cache.<name>.{hits,misses}
// counters into one add call per cache, in name order. A run's
// manifest harvests the global snapshot through it, a service job's
// manifest its own scope.
func CacheCounts(counters []CounterSnapshot, add func(name string, hits, misses int64)) {
	caches := map[string]*[2]int64{}
	for _, c := range counters {
		rest, ok := strings.CutPrefix(c.Name, "cache.")
		if !ok {
			continue
		}
		for i, suffix := range [2]string{".hits", ".misses"} {
			if name, ok := strings.CutSuffix(rest, suffix); ok {
				if caches[name] == nil {
					caches[name] = new([2]int64)
				}
				caches[name][i] = c.Value
			}
		}
	}
	for _, name := range sortedNames(caches) {
		add(name, caches[name][0], caches[name][1])
	}
}

// scopeKey is the context key carrying the active scope.
type scopeKey struct{}

// NewScopeContext returns a context carrying sc, for threading the
// active job's scope through the call tree (the memo caches resolve it
// in DoCtx). A nil scope returns ctx unchanged.
func NewScopeContext(ctx context.Context, sc *Scope) context.Context {
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, sc)
}

// ScopeFrom returns the scope ctx carries, or nil. A nil scope is a
// valid no-op receiver, so callers chain without guards.
func ScopeFrom(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	sc, _ := ctx.Value(scopeKey{}).(*Scope)
	return sc
}

// Sub returns the per-metric delta cur − prev, the windowless way to
// answer "what happened between these two captures": fleet pollers and
// per-interval controllers diff snapshots instead of tracking lifetime
// totals. Counters subtract and clamp at the current value when the
// previous reading is larger (a Reset between captures restarts the
// count, so the delta since the reset is everything current). Gauges
// are levels, not totals — the current reading carries over. Histogram
// deltas subtract bucket-by-bucket and recompute the quantiles over
// only the new observations; a shrunken count likewise reads as a
// reset. Windows are already time-local deltas and carry over as-is.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Enabled:    s.Enabled,
		Counters:   make([]CounterSnapshot, len(s.Counters)),
		Gauges:     append([]GaugeSnapshot(nil), s.Gauges...),
		Histograms: make([]HistogramSnapshot, len(s.Histograms)),
		Windows:    append([]WindowSnapshot(nil), s.Windows...),
	}
	prevC := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevC[c.Name] = c.Value
	}
	for i, c := range s.Counters {
		d := c.Value - prevC[c.Name]
		if d < 0 {
			d = c.Value
		}
		out.Counters[i] = CounterSnapshot{Name: c.Name, Value: d}
	}
	prevH := make(map[string]HistogramSnapshot, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevH[h.Name] = h
	}
	for i, h := range s.Histograms {
		out.Histograms[i] = subHistogram(h, prevH[h.Name])
	}
	return out
}

// subHistogram computes one histogram's delta. The missing-prev case
// falls out naturally: a zero HistogramSnapshot subtracts nothing.
func subHistogram(cur, prev HistogramSnapshot) HistogramSnapshot {
	if cur.Count < prev.Count {
		// Reset between captures: everything current is new.
		return cur
	}
	d := HistogramSnapshot{
		Name:  cur.Name,
		Unit:  cur.Unit,
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
	}
	if d.Count == 0 {
		// Empty delta: no new observations, so no distribution. Sum
		// can only be stale skew; clamp it.
		d.Sum = 0
		return d
	}
	var total int64
	for i := range cur.Buckets {
		db := cur.Buckets[i] - prev.Buckets[i]
		if db < 0 {
			// Concurrent-recording skew between the bucket reads of
			// the two captures; a bucket never truly shrinks.
			db = 0
		}
		d.Buckets[i] = db
		total += db
	}
	if d.Sum < 0 {
		d.Sum = 0
	}
	d.Mean = float64(d.Sum) / float64(d.Count)
	// The delta's envelope is not recoverable from the moments; the
	// current envelope is the tightest safe clamp.
	d.Min = cur.Min
	d.Max = cur.Max
	if total > 0 {
		d.P50 = quantile(&d.Buckets, total, 0.50, d.Min, d.Max)
		d.P95 = quantile(&d.Buckets, total, 0.95, d.Min, d.Max)
		d.P99 = quantile(&d.Buckets, total, 0.99, d.Min, d.Max)
	}
	return d
}
