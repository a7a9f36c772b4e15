package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/power"
	"repro/internal/rms"
)

// populationMC runs the population runner at a large chip count once
// set-up has measured canneal's quality fronts and factored the
// variation covariance. Each repetition draws fresh chips, so its work
// is chip draws, power models and solves in many small pool tasks,
// with no kernel execution.
func populationMC(c *config, traced bool) (*result, error) {
	ctx := context.Background()
	res := newResult()
	if traced {
		return res, tracePopulation(ctx, c, res)
	}
	setups, err := setUp(c, func() error { return populationSetUp(ctx, c.seed) })
	if err != nil {
		return nil, err
	}
	var walls, cpus []float64
	begin := time.Now()
	for rep := 0; ; rep++ {
		cfg := populationConfig(c, rep)
		cpu0, t0 := cpuSeconds(), time.Now()
		results, err := experiments.RunMany(ctx, cfg, []string{"population"})
		wall := time.Since(t0)
		cpu := cpuSeconds() - cpu0
		if err != nil {
			return nil, err
		}
		walls, cpus = append(walls, wall.Seconds()), append(cpus, cpu)

		res.attempted++
		digest, err := renderDigest(results)
		switch {
		case err != nil:
			res.failed++
			res.flag("repetition %d: %v", rep+1, err)
		case rep < c.minReps && !checkDigest(c, res, repKey(c.seed, rep), digest):
			res.failed++
		}
		if rep+1 >= c.minReps && !repeatFor(time.Since(begin), wall, c.budget) {
			break
		}
	}
	res.set("wall_s", median(walls), "s")
	res.set("cpu_s", median(cpus), "s")
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("throughput_per_s", float64(c.chips*len(walls))/sum(walls), "1/s")
	res.detail["repetitions"] = len(walls)
	res.detail["wall_s"] = walls
	res.detail["cpu_s"] = cpus
	res.detail["setup_s"] = setups
	return res, nil
}

// setUp runs a workload's set-up c.setups times, each from empty
// caches, and returns their durations. The first is timed from process
// start; the state the last one leaves is what the timed phase uses.
func setUp(c *config, fn func() error) ([]float64, error) {
	var setups []float64
	for i := 0; i < c.setups; i++ {
		t := time.Now()
		if i == 0 {
			t = c.start
		}
		coldStart()
		if err := fn(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return setups, nil
}

// populationSetUp fills what every population repetition shares:
// canneal's quality fronts and the covariance factorization.
func populationSetUp(ctx context.Context, seed int64) error {
	cb, err := experiments.BenchmarkByName("canneal")
	if err != nil {
		return err
	}
	if _, err := experiments.MeasuredFronts(ctx, cb, seed); err != nil {
		return err
	}
	_, err = chip.NewFactory(chip.DefaultConfig())
	return err
}

// populationConfig is repetition rep's configuration: its own chip
// seeds, derived from the workload seed.
func populationConfig(c *config, rep int) experiments.Config {
	return experiments.Config{Seed: c.seed, ChipSeed: mathx.SplitSeed(c.seed, int64(rep)), Chips: c.chips}
}

// repKey is the committed-digest key of a population repetition.
func repKey(seed int64, rep int) string { return fmt.Sprintf("%d/%d", seed, rep) }

// tracePopulation re-enacts one repetition with its set-up: the
// population runner's per-chip calls, chip by chip, as the runner
// makes them (draw, power model, solver, solve).
func tracePopulation(ctx context.Context, c *config, res *result) error {
	cfg := populationConfig(c, 0)
	untraced := func() error {
		if err := populationSetUp(ctx, c.seed); err != nil {
			return err
		}
		results, err := experiments.RunMany(ctx, cfg, []string{"population"})
		if err != nil {
			return err
		}
		digest, err := renderDigest(results)
		if err != nil {
			return err
		}
		res.attempted++
		if !checkDigest(c, res, repKey(c.seed, 0), digest) {
			res.failed++
		}
		return nil
	}
	traced := func(rec *recorder, n *counts) error {
		kernels, err := fill(ctx, rec, c)
		if err != nil {
			return err
		}
		cb := kernels[0]
		qm, err := experiments.MeasuredFronts(ctx, cb, c.seed)
		if err != nil {
			return err
		}
		var f *chip.Factory
		err = rec.do("chip.factory", func() (err error) {
			f, err = chip.NewFactory(chip.DefaultConfig())
			return err
		})
		if err != nil {
			return err
		}
		for i := 0; i < c.chips; i++ {
			if err := solveChip(ctx, rec, f, cb, qm, mathx.SplitSeed(cfg.ChipSeed, int64(i))); err != nil {
				n.errors++
				return err
			}
			n.solves++
		}
		return nil
	}
	return traceLayers(c, res, untraced, traced)
}

// solveChip is one population chip: the calls the runner's pool task
// makes, each in its own span.
func solveChip(ctx context.Context, rec *recorder, f *chip.Factory, cb rms.Benchmark, qm *core.QualityModel, seed int64) error {
	var ch *chip.Chip
	rec.do("chip.draw", func() error {
		ch = f.SampleCtx(ctx, seed)
		return nil
	})
	var pm *power.Model
	rec.do("power.model", func() error {
		pm = power.NewModel(ch)
		return nil
	})
	var s *core.Solver
	err := rec.do("core.new_solver", func() (err error) {
		s, err = core.NewSolver(ch, pm, cb, qm)
		return err
	})
	if err != nil {
		return err
	}
	return rec.do("core.solve", func() error {
		_, err := s.Solve(cb.DefaultInput(), core.Speculative)
		return err
	})
}
