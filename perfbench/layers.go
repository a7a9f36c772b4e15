package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/variation"
)

// coverageBound is the largest share of paper-cold's traced wall the
// layers may leave unattributed before the run is flagged.
const coverageBound = 0.10

// layers are the program layers whose self-time share of the traced
// wall every workload reports. The trace attributes a span to the
// layer its name starts with; variation counts inside chip.
var layers = []string{"workload", "rms", "core", "chip", "power", "experiments", "service"}

// memoCaches maps the reported cache names to the telemetry names of
// the program's memo caches.
var memoCaches = []struct{ name, counter string }{
	{"Kernels", "cache.experiments.Kernels"},
	{"RepresentativeChip", "cache.experiments.RepresentativeChip"},
	{"MeasuredFronts", "cache.experiments.MeasuredFronts"},
	{"Reference", "cache.rms.Reference"},
	{"Cholesky", "cache.variation.Cholesky"},
	{"CirculantEigen", "cache.variation.CirculantEigen"},
	{"FlipMask", "cache.fault.FlipMask"},
}

// coldStart empties every memo cache and the heap, so a pass starts
// from the state a fresh process has.
func coldStart() {
	experiments.ResetCaches()
	runtime.GC()
}

// counts are layer work counts a traced re-enactment tallies itself,
// where the program keeps no counter: solves are counted only where the
// benchmark calls the solver itself (population-mc), so paper-cold and
// service-warm report 0.
type counts struct {
	solves, errors int
}

// traceLayers measures a workload's per-layer metrics. It runs the
// workload's work twice, serially (pool width 1) and each time from
// cold caches: once untraced, for the run-time statistics and the wall
// the trace overhead is measured against, and once as the traced
// re-enactment, whose spans give each layer's self time. The unit-cost
// probes follow, outside the traced wall.
func traceLayers(c *config, res *result, untraced func() error, traced func(*recorder, *counts) error) error {
	defer parallel.SetWorkers(1)()

	coldStart()
	rt0, t0 := readRuntime(), time.Now()
	if err := untraced(); err != nil {
		return fmt.Errorf("untraced serial pass: %w", err)
	}
	untracedWall := time.Since(t0)
	rt := readRuntime().sub(rt0)

	coldStart()
	restore := telemetry.SetEnabled(true)
	snap0 := telemetry.Capture()
	rec := newRecorder()
	var n counts
	err := traced(rec, &n)
	wall := rec.now()
	snap := telemetry.Capture().Sub(snap0)
	restore()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}

	a := attribute(rec.spans, wall)
	res.set("traced_wall_s", wall.Seconds(), "s")
	res.set("unattributed_s", a.unattributed.Seconds(), "s")
	share := a.unattributed.Seconds() / wall.Seconds()
	res.set("unattributed_share", share, "ratio")
	res.set("trace_overhead_ratio", wall.Seconds()/untracedWall.Seconds(), "ratio")
	if c.workload == "paper-cold" && share > coverageBound {
		res.flag("layers leave %.1f%% of the traced wall unattributed, above the %.0f%% bound", 100*share, 100*coverageBound)
	}
	for _, l := range layers {
		res.set(l+".self_share", a.byLayer[l].Seconds()/wall.Seconds(), "ratio")
	}
	res.set("workload.build_s", a.prefix("workload.build").Seconds(), "s")
	res.set("rms.reference_s", a.prefix("rms.reference.").Seconds(), "s")
	res.set("core.fronts_s", a.prefix("core.fronts.").Seconds(), "s")
	res.set("chip.draws", float64(counter(snap, "chip.factory.chips_drawn")), "count")
	res.set("core.solves", float64(n.solves), "count")
	res.set("experiments.errors", float64(n.errors), "count")
	coalesced, requests := counter(snap, "service.coalesced"), counter(snap, "service.requests")
	res.set("service.coalesced_ratio", ratio(coalesced, requests), "ratio")
	res.set("service.rejected", float64(counter(snap, "service.rejected")), "count")
	spans := map[string]float64{}
	for name, d := range a.byName {
		spans[name] = d.Seconds()
	}
	res.detail["self_s"] = spans

	res.set("parallel.pool.tasks", float64(counter(snap, "parallel.tasks.completed")), "count")
	res.set("parallel.pool.queue_wait_s", float64(histogram(snap, "parallel.queue.wait_ns").Sum)/1e9, "s")
	for _, mc := range memoCaches {
		hits, misses := counter(snap, mc.counter+".hits"), counter(snap, mc.counter+".misses")
		res.set("parallel.cache."+mc.name+".hit_ratio", ratio(hits, hits+misses), "ratio")
	}

	res.set("runtime.alloc_mb", rt.allocBytes/(1<<20), "MB")
	res.set("runtime.gc_cycles", rt.gcCycles, "count")
	res.set("runtime.gc_cpu_s", rt.gcCPU, "s")

	name := "canneal"
	if c.kernels != nil {
		name = c.kernels[0]
	}
	return probe(res, c.seed, name)
}

// ratio is part/whole, and 0 when nothing was counted.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func counter(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histogram(s telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return telemetry.HistogramSnapshot{}
}

// probeReps is how many times each unit-cost probe runs; the median
// is reported.
const probeReps = 3

// timeMedian runs fn n times and returns its median duration.
func timeMedian(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds)), nil
}

// probe measures the unit cost of each layer's entry points at fixed
// inputs: one default-input run and quality score per kernel, one core
// simulation, a factorization, a chip draw, a power model and the
// solver's calls on kernel solverKernel's fronts. The probes give unit
// costs only; they lie outside the traced wall and its attribution.
func probe(res *result, seed int64, solverKernel string) error {
	kernels, err := experiments.AllKernels()
	if err != nil {
		return err
	}
	var score time.Duration
	for _, b := range kernels {
		var run rms.Result
		d, err := timeMedian(probeReps, func(int) (err error) {
			run, err = b.Run(b.DefaultInput(), b.DefaultThreads(), fault.Plan{}, seed)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", b.Name(), err)
		}
		res.set("rms."+b.Name()+".run_ms", float64(d)/1e6, "ms")
		res.set("rms."+b.Name()+".ops", run.Ops, "count")
		res.set("rms."+b.Name()+".ns_per_op", float64(d)/run.Ops, "ns")
		q, err := timeMedian(probeReps, func(int) error {
			_, err := b.Quality(run, run)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s quality: %w", b.Name(), err)
		}
		score += q
	}
	res.set("quality.score_s", score.Seconds(), "s")

	cb, err := experiments.BenchmarkByName(solverKernel)
	if err != nil {
		return err
	}
	// The cpi runner's call: 300k instructions of a kernel's trace.
	d, err := timeMedian(probeReps, func(int) error {
		_, err := sim.SimulateCore(cb.Trace(), 300000, 1.0)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe sim: %w", err)
	}
	res.set("sim.simulate_s", d.Seconds(), "s")

	var f *chip.Factory
	d, err = timeMedian(probeReps, func(int) (err error) {
		variation.ResetFactorizationCache()
		variation.ResetEigenCache()
		f, err = chip.NewFactory(chip.DefaultConfig())
		return err
	})
	if err != nil {
		return fmt.Errorf("probe chip factory: %w", err)
	}
	res.set("chip.factory_s", d.Seconds(), "s")

	var ch *chip.Chip
	d, _ = timeMedian(probeReps, func(i int) error {
		ch = f.Sample(mathx.SplitSeed(seed, int64(i)))
		return nil
	})
	res.set("chip.draw_s", d.Seconds(), "s")

	var pm *power.Model
	d, _ = timeMedian(probeReps, func(int) error {
		pm = power.NewModel(ch)
		return nil
	})
	res.set("power.model_s", d.Seconds(), "s")

	qm, err := experiments.MeasuredFronts(context.Background(), cb, seed)
	if err != nil {
		return err
	}
	var s *core.Solver
	d, err = timeMedian(probeReps, func(int) (err error) {
		s, err = core.NewSolver(ch, pm, cb, qm)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe solver: %w", err)
	}
	res.set("core.new_solver_s", d.Seconds(), "s")
	d, err = timeMedian(probeReps, func(int) error {
		_, err := s.Solve(cb.DefaultInput(), core.Speculative)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe solve: %w", err)
	}
	res.set("core.solve_s", d.Seconds(), "s")
	d, err = timeMedian(probeReps, func(int) error {
		_, err := s.Front(core.Speculative)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe front: %w", err)
	}
	res.set("core.front_s", d.Seconds(), "s")
	return nil
}

// fill is the traced re-enactment of the set-up every runner depends
// on, in dependency order: kernel construction, each kernel's
// reference execution, then its quality fronts.
func fill(ctx context.Context, rec *recorder, c *config) ([]rms.Benchmark, error) {
	var all []rms.Benchmark
	err := rec.do("workload.build", func() (err error) {
		all, err = experiments.AllKernels()
		return err
	})
	if err != nil {
		return nil, err
	}
	kernels := all
	if c.kernels != nil {
		kernels = nil
		for _, name := range c.kernels {
			b, err := experiments.BenchmarkByName(name)
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, b)
		}
	}
	for _, b := range kernels {
		err := rec.do("rms.reference."+b.Name(), func() error {
			_, err := rms.ReferenceCtx(ctx, b, c.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, b := range kernels {
		err := rec.do("core.fronts."+b.Name(), func() error {
			_, err := experiments.MeasuredFronts(ctx, b, c.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return kernels, nil
}
