package telemetry

import (
	"context"
	"sync"
	"testing"
)

// TestScopedCounterAttribution pins the core scope invariant: a scoped
// bump lands in the global counter AND the scope, so the global delta
// equals the sum of the scoped tallies.
func TestScopedCounterAttribution(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.scope.counter")
	c.reset()
	a, b := NewScope(), NewScope()

	c.AddScoped(a, 3)
	c.AddScoped(b, 5)
	c.IncScoped(a)
	c.Add(10) // unscoped

	if got := c.Value(); got != 19 {
		t.Errorf("global = %d, want 19", got)
	}
	if got := a.CounterValue("test.scope.counter"); got != 4 {
		t.Errorf("scope a = %d, want 4", got)
	}
	if got := b.CounterValue("test.scope.counter"); got != 5 {
		t.Errorf("scope b = %d, want 5", got)
	}
	snaps := a.Counters()
	if len(snaps) != 1 || snaps[0].Name != "test.scope.counter" || snaps[0].Value != 4 {
		t.Errorf("a.Counters() = %+v", snaps)
	}
}

// TestScopeDisabledAndNil: with the switch off nothing records
// anywhere, and nil scopes/handles are no-ops.
func TestScopeDisabledAndNil(t *testing.T) {
	defer SetEnabled(false)()
	c := GetCounter("test.scope.disabled")
	c.reset()
	sc := NewScope()
	c.AddScoped(sc, 7)
	if c.Value() != 0 || sc.CounterValue("test.scope.disabled") != 0 {
		t.Error("disabled scoped bump recorded somewhere")
	}

	SetEnabled(true)
	c.AddScoped(nil, 2) // nil scope: global only
	if c.Value() != 2 {
		t.Errorf("nil-scope bump: global = %d, want 2", c.Value())
	}
	var nilC *Counter
	nilC.AddScoped(sc, 1)
	var nilScope *Scope
	if nilScope.CounterValue("x") != 0 || nilScope.Counters() != nil {
		t.Error("nil scope readouts are not zero")
	}

	if allocs := testing.AllocsPerRun(1000, func() { c.AddScoped(nil, 0) }); allocs != 0 {
		t.Errorf("nil-scope AddScoped allocates %v times per run", allocs)
	}
}

// TestScopeContext pins the context plumbing the memo caches rely on.
func TestScopeContext(t *testing.T) {
	sc := NewScope()
	ctx := NewScopeContext(context.Background(), sc)
	if got := ScopeFrom(ctx); got != sc {
		t.Errorf("ScopeFrom = %p, want %p", got, sc)
	}
	if got := ScopeFrom(context.Background()); got != nil {
		t.Errorf("ScopeFrom(empty ctx) = %p, want nil", got)
	}
	if got := ScopeFrom(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("ScopeFrom(nil) = %p, want nil", got)
	}
	base := context.Background()
	if got := NewScopeContext(base, nil); got != base {
		t.Error("NewScopeContext(ctx, nil) should return ctx unchanged")
	}
}

// TestScopeConcurrentAttribution hammers one counter from many
// goroutines, each pair sharing a scope, and expects exact per-scope
// and global totals. Run with -race for the full value.
func TestScopeConcurrentAttribution(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.scope.concurrent")
	c.reset()
	const scopes, workersPer, per = 4, 4, 2500
	scs := make([]*Scope, scopes)
	var wg sync.WaitGroup
	for i := range scs {
		scs[i] = NewScope()
		for g := 0; g < workersPer; g++ {
			wg.Add(1)
			go func(sc *Scope) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					c.IncScoped(sc)
				}
			}(scs[i])
		}
	}
	wg.Wait()
	var sum int64
	for i, sc := range scs {
		v := sc.CounterValue("test.scope.concurrent")
		if v != workersPer*per {
			t.Errorf("scope %d = %d, want %d", i, v, workersPer*per)
		}
		sum += v
	}
	if got := c.Value(); got != sum {
		t.Errorf("global %d != sum of scopes %d", got, sum)
	}
}

// captureByName pulls one counter/histogram pair out of a snapshot.
func histByName(s Snapshot, name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

func counterByName(s Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestSnapshotSubCounters pins delta semantics including the
// reset-between-captures clamp.
func TestSnapshotSubCounters(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.sub.counter")
	c.reset()
	c.Add(10)
	prev := Capture()
	c.Add(7)
	d := Capture().Sub(prev)
	if got := counterByName(d, "test.sub.counter"); got != 7 {
		t.Errorf("delta = %d, want 7", got)
	}

	// A reset between captures: the counter restarted, so the delta is
	// everything current, never negative.
	c.reset()
	c.Add(3)
	d = Capture().Sub(prev)
	if got := counterByName(d, "test.sub.counter"); got != 3 {
		t.Errorf("post-reset delta = %d, want 3 (clamped to current)", got)
	}
}

// TestSnapshotSubHistograms pins the three histogram delta cases: a
// real delta recomputes quantiles over only the new observations, an
// empty delta reads as zeros, and a reset reads as "everything
// current".
func TestSnapshotSubHistograms(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.sub.hist")
	h.reset()
	for i := 0; i < 100; i++ {
		h.Observe(100) // old regime: fast
	}
	prev := Capture()

	// Empty delta first: no new observations.
	empty, ok := histByName(Capture().Sub(prev), "test.sub.hist")
	if !ok {
		t.Fatal("delta snapshot misses the histogram")
	}
	if empty.Count != 0 || empty.Sum != 0 || empty.P50 != 0 || empty.P99 != 0 {
		t.Errorf("empty delta = %+v, want all-zero moments", empty)
	}

	// Real delta: the new observations are ~1000x slower; the delta's
	// p50 must reflect only them, not the cumulative distribution.
	for i := 0; i < 100; i++ {
		h.Observe(100_000)
	}
	d, _ := histByName(Capture().Sub(prev), "test.sub.hist")
	if d.Count != 100 {
		t.Fatalf("delta count = %d, want 100", d.Count)
	}
	if d.P50 < 50_000 {
		t.Errorf("delta p50 = %d, want ~100000 (cumulative p50 would be ~100)", d.P50)
	}
	if d.Mean != 100_000 {
		t.Errorf("delta mean = %g, want 100000", d.Mean)
	}

	// Reset between captures: current count < previous count, so the
	// whole current distribution is the delta.
	h.reset()
	h.Observe(40)
	r, _ := histByName(Capture().Sub(prev), "test.sub.hist")
	if r.Count != 1 || r.Max != 40 {
		t.Errorf("post-reset delta = %+v, want the single current observation", r)
	}
}

// TestSnapshotSubGauges: gauges are levels, not totals — Sub carries
// the current reading.
func TestSnapshotSubGauges(t *testing.T) {
	defer SetEnabled(true)()
	g := GetGauge("test.sub.gauge")
	g.reset()
	g.Set(5)
	prev := Capture()
	g.Set(9)
	d := Capture().Sub(prev)
	for _, gs := range d.Gauges {
		if gs.Name == "test.sub.gauge" && gs.Value != 9 {
			t.Errorf("gauge in delta = %d, want current level 9", gs.Value)
		}
	}
}
