package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// RunResult is one experiment's outcome under RunMany: the tables it
// produced, or the error that stopped it, plus the runner's wall time
// (for the provenance manifest's per-runner accounting).
type RunResult struct {
	ID      string
	Tables  []*Table
	Err     error
	Elapsed time.Duration
}

// RunMany executes the named experiments concurrently on the parallel
// pool (bounded by parallel.Workers(), the -j flag) and returns their
// results in the order the ids were given — the rendered output is
// byte-identical to running them one at a time. Runner errors are
// collected per experiment in RunResult.Err rather than cancelling
// siblings; the returned error is non-nil only for an unknown id or a
// context cancellation.
//
// Under the tracing tier each runner records an experiments.run.<id>
// span (child of the ctx span, in the worker's lane) and passes it
// down through its context, so chip draws, front measurements and
// solver sweeps nest run → runner → stage in the exported trace.
func RunMany(ctx context.Context, cfg Config, ids []string) ([]RunResult, error) {
	reg := Registry()
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
	}
	// Hold the cache gate for the whole run so a concurrent
	// ResetCaches cannot interleave with the memo layers mid-flight.
	defer holdCaches()()
	return parallel.MapCtx(ctx, len(ids), func(wctx context.Context, i int) (RunResult, error) {
		rctx := wctx
		var tsp *trace.Span
		if trace.On() {
			tsp = trace.StartFrom(wctx, "experiments.run."+ids[i])
			rctx = trace.NewContext(wctx, tsp)
		}
		// Per-runner wall time is reporting, not simulation: it feeds
		// RunResult.Elapsed (the provenance manifest) and, while
		// telemetry records, the experiments.run.<id> histogram; no
		// model output depends on it.
		//lint:ignore determinism wall-clock runner timing feeds the provenance manifest only
		start := time.Now()
		tables, err := reg[ids[i]](rctx, cfg)
		//lint:ignore determinism wall-clock runner timing feeds the provenance manifest only
		elapsed := time.Since(start)
		tsp.End()
		if telemetry.On() {
			telemetry.GetHistogram("experiments.run." + ids[i]).Observe(elapsed.Nanoseconds())
		}
		return RunResult{ID: ids[i], Tables: tables, Err: err, Elapsed: elapsed}, nil
	})
}

// RunAll executes every registered experiment in presentation order.
func RunAll(ctx context.Context, cfg Config) ([]RunResult, error) {
	return RunMany(ctx, cfg, IDs())
}

// FirstErr returns the first per-experiment error in result order, or
// nil.
func FirstErr(results []RunResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, r.Err)
		}
	}
	return nil
}

// RenderAll renders every result's tables to w in order, stopping at
// the first render or runner error.
func RenderAll(w io.Writer, results []RunResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, r.Err)
		}
		for _, t := range r.Tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
