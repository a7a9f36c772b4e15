// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation under `go test -bench=.`, reporting the
// headline quantities as benchmark metrics, plus the ablation studies
// DESIGN.md calls out (core-selection policy, f-domain granularity,
// drop pattern, CC/DC organization, checkpoint cadence) and one
// microbenchmark per RMS kernel.
//
// The rows/series themselves are printed by `go run ./cmd/accordion`;
// here the same drivers run with output discarded so the -bench run
// measures regeneration cost and records the summary metrics.
package repro_test

import (
	"context"
	"io"
	"strconv"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/rms"
	"repro/internal/tech"
)

// runExperiment regenerates one artifact per iteration, rendering to
// io.Discard.
func runExperiment(b *testing.B, id string) []*experiments.Table {
	b.Helper()
	runner, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = runner(context.Background(), experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	return tables
}

// noteMetric extracts the first float following tag in a table note and
// reports it under name.
func noteMetric(b *testing.B, tables []*experiments.Table, tag, name string) {
	b.Helper()
	if v, ok := experiments.NoteMetric(tables, tag); ok {
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig1a(b *testing.B) {
	tables := runExperiment(b, "fig1a")
	noteMetric(b, tables, "energy/op gain", "x-energy-gain")
}

func BenchmarkFig1b(b *testing.B) { runExperiment(b, "fig1b") }

func BenchmarkFig1c(b *testing.B) { runExperiment(b, "fig1c") }

func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

func BenchmarkFig5a(b *testing.B) { runExperiment(b, "fig5a") }

func BenchmarkFig5b(b *testing.B) { runExperiment(b, "fig5b") }

func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

func BenchmarkHeadline(b *testing.B) {
	tables := runExperiment(b, "headline")
	// Record the paper's 1.61-1.87x band as measured here.
	tab := tables[0]
	lo, hi := 1e9, -1e9
	for i := range tab.Rows {
		for j, col := range tab.Columns {
			if col != "spec MIPS/W" {
				continue
			}
			v, err := strconv.ParseFloat(tab.Rows[i][j], 64)
			if err != nil {
				b.Fatal(err)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	b.ReportMetric(lo, "x-MIPSW-min")
	b.ReportMetric(hi, "x-MIPSW-max")
}

func BenchmarkCorruption(b *testing.B) { runExperiment(b, "corruption") }

func BenchmarkBaselines(b *testing.B) { runExperiment(b, "baselines") }

// --- Ablations -----------------------------------------------------

// benchChip returns the shared representative chip.
func benchChip(b *testing.B) *chip.Chip {
	b.Helper()
	ch, err := chip.New(chip.DefaultConfig(), 2014)
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

// BenchmarkAblationCoreSelection compares the Still-point energy
// efficiency under the three core-selection policies.
func BenchmarkAblationCoreSelection(b *testing.B) {
	ch := benchChip(b)
	pm := power.NewModel(ch)
	bench, err := experiments.BenchmarkByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	qm, err := core.MeasureFronts(bench, 1)
	if err != nil {
		b.Fatal(err)
	}
	policies := []chip.SelectPolicy{chip.SelectEfficient, chip.SelectFastest, chip.SelectSequential}
	for i := 0; i < b.N; i++ {
		for _, pol := range policies {
			solver, err := core.NewSolver(ch, pm, bench, qm)
			if err != nil {
				b.Fatal(err)
			}
			solver.SetPolicy(pol)
			op, err := solver.Solve(bench.DefaultInput(), core.Safe)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(op.RelMIPSPerWatt, "x-"+pol.String())
			}
		}
	}
}

// BenchmarkAblationFDomain compares per-core engagement against
// whole-cluster engagement (cluster-granularity f domains).
func BenchmarkAblationFDomain(b *testing.B) {
	ch := benchChip(b)
	vdd := ch.VddNTV()
	for i := 0; i < b.N; i++ {
		// Per-core: the 64 best cores chip-wide.
		perCore := ch.SelectCores(64, vdd, chip.SelectFastest)
		fCore := ch.SetFreq(perCore, vdd, tech.ErrorFreePerr)
		// Cluster granularity: the 8 best whole clusters by their
		// slowest member.
		type cl struct {
			id int
			f  float64
		}
		var ranked []cl
		for c := 0; c < ch.Cfg.Clusters; c++ {
			s := ch.ClusterSlowestCore(c, vdd)
			ranked = append(ranked, cl{c, ch.CoreSafeFreq(s, vdd)})
		}
		for a := range ranked {
			for c := a + 1; c < len(ranked); c++ {
				if ranked[c].f > ranked[a].f {
					ranked[a], ranked[c] = ranked[c], ranked[a]
				}
			}
		}
		var clustered []int
		for _, r := range ranked[:8] {
			lo, hi := ch.ClusterCores(r.id)
			for id := lo; id < hi; id++ {
				clustered = append(clustered, id)
			}
		}
		fCluster := ch.SetFreq(clustered, vdd, tech.ErrorFreePerr)
		if i == 0 {
			b.ReportMetric(fCore, "x-f-percore")
			b.ReportMetric(fCluster, "x-f-cluster")
			if fCluster > fCore+1e-9 {
				b.Fatal("cluster granularity cannot beat per-core selection")
			}
		}
	}
}

// BenchmarkAblationDropPattern compares the paper's uniform drop with
// clustered drop for hotspot quality.
func BenchmarkAblationDropPattern(b *testing.B) {
	bench, err := experiments.BenchmarkByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	ref, err := rms.Reference(bench, 1)
	if err != nil {
		b.Fatal(err)
	}
	uniform := fault.Plan{Mode: fault.Drop, Num: 16, Den: 64}
	clustered := fault.Plan{Mode: fault.Drop, Num: 16, Den: 64, Contiguous: true}
	for i := 0; i < b.N; i++ {
		ru, err := bench.Run(bench.DefaultInput(), 64, uniform, 1)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := bench.Run(bench.DefaultInput(), 64, clustered, 1)
		if err != nil {
			b.Fatal(err)
		}
		qu, err := bench.Quality(ru, ref)
		if err != nil {
			b.Fatal(err)
		}
		qc, err := bench.Quality(rc, ref)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(qu, "x-q-uniform")
			b.ReportMetric(qc, "x-q-clustered")
		}
	}
}

// BenchmarkAblationOrg compares the three Figure 3 organizations on the
// CC/DC runtime.
func BenchmarkAblationOrg(b *testing.B) {
	orgs := []core.Organization{core.HomogeneousSpatial, core.HomogeneousTimeMux, core.HeterogeneousClusters}
	shared := core.NewSharedRegion([]float64{1})
	for i := 0; i < b.N; i++ {
		for _, org := range orgs {
			rt, err := core.NewRuntime(core.RuntimeConfig{
				Org: org, NumCC: 1, NumDC: 16,
				DataFreq: 0.5, CtrlFreq: 1.5,
				TaskOps: 5e6, NumTasks: 128,
				PollEvery: 0.5e-3, Watchdog: 25e-3,
				RoleSwapCost: 0.5e-3,
			})
			if err != nil {
				b.Fatal(err)
			}
			stats, err := rt.Run(shared.View(), func(task int, in core.ReadOnlyView) float64 { return 1 })
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(stats.Time*1e3, "x-ms-"+org.String())
			}
		}
	}
}

// BenchmarkAblationCheckpoint sweeps the checkpoint cadence of the
// Speculative safety net.
func BenchmarkAblationCheckpoint(b *testing.B) {
	shared := core.NewSharedRegion([]float64{1})
	for i := 0; i < b.N; i++ {
		for _, every := range []float64{5e-3, 20e-3, 80e-3} {
			rt, err := core.NewRuntime(core.RuntimeConfig{
				Org: core.HomogeneousSpatial, NumCC: 1, NumDC: 16,
				DataFreq: 0.5, CtrlFreq: 1.5,
				TaskOps: 5e6, NumTasks: 128,
				PollEvery: 0.5e-3, Watchdog: 25e-3,
				CheckpointEvery: every, CheckpointCost: 0.2e-3,
			})
			if err != nil {
				b.Fatal(err)
			}
			stats, err := rt.Run(shared.View(), func(task int, in core.ReadOnlyView) float64 { return 1 })
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(stats.Checkpoints), "x-ckpts-"+strconv.Itoa(int(every*1e3))+"ms")
			}
		}
	}
}

// --- Kernel microbenchmarks -----------------------------------------

func benchKernel(b *testing.B, name string) {
	bench, err := experiments.BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.DefaultInput(), bench.DefaultThreads(), fault.Plan{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Ops, "x-ops")
		}
	}
}

func BenchmarkKernelCanneal(b *testing.B)   { benchKernel(b, "canneal") }
func BenchmarkKernelFerret(b *testing.B)    { benchKernel(b, "ferret") }
func BenchmarkKernelBodytrack(b *testing.B) { benchKernel(b, "bodytrack") }
func BenchmarkKernelX264(b *testing.B)      { benchKernel(b, "x264") }
func BenchmarkKernelHotspot(b *testing.B)   { benchKernel(b, "hotspot") }
func BenchmarkKernelSrad(b *testing.B)      { benchKernel(b, "srad") }

// --- Section 7 extensions -------------------------------------------

func BenchmarkWeakscale(b *testing.B) { runExperiment(b, "weakscale") }

func BenchmarkDynamic(b *testing.B) {
	tables := runExperiment(b, "dynamic")
	// Report the static-schedule miss count at the middle rate.
	tab := tables[0]
	if len(tab.Rows) >= 4 {
		if v, err := strconv.ParseFloat(tab.Rows[2][2], 64); err == nil {
			b.ReportMetric(v, "x-static-misses")
		}
		if v, err := strconv.ParseFloat(tab.Rows[3][2], 64); err == nil {
			b.ReportMetric(v, "x-dynamic-misses")
		}
	}
}

func BenchmarkPopulation(b *testing.B) { runExperiment(b, "population") }

// --- Parallel engine ------------------------------------------------
//
// The Sequential/Parallel pairs measure the worker pool's speedup on
// the two headline paths: Monte-Carlo population regeneration and the
// all-experiments driver. scripts/bench_parallel.sh runs both pairs and
// records the ratios in BENCH_parallel.json; the parallel variants
// target >= 3x on a 4+-core machine. Caches are reset every iteration
// so each run pays the full cold-cache cost the pool is hiding.

// benchPopulation draws the paper's 100-chip sample from a prebuilt
// factory under the given pool width.
func benchPopulation(b *testing.B, workers int) {
	b.Cleanup(parallel.SetWorkers(workers))
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const paperChips = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop := f.Population(2014, paperChips)
		if len(pop) != paperChips {
			b.Fatal("short population")
		}
	}
}

func BenchmarkPopulationSequential(b *testing.B) { benchPopulation(b, 1) }
func BenchmarkPopulationParallel(b *testing.B)   { benchPopulation(b, 0) }

// BenchmarkPopulationChip is one Monte-Carlo chip of the population
// runner, as its pool tasks run it: a draw into a recycled chip, a
// power model, a solver and the Still-point Speculative solve. Its
// B/op bounds the population's allocation rate, which peak RSS tracks.
func BenchmarkPopulationChip(b *testing.B) {
	ctx := context.Background()
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cb, err := experiments.BenchmarkByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	qm, err := experiments.MeasuredFronts(ctx, cb, experiments.DefaultConfig().Seed)
	if err != nil {
		b.Fatal(err)
	}
	ch := new(chip.Chip)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch = f.SampleIntoCtx(ctx, ch, mathx.SplitSeed(2014, int64(i)))
		s, err := core.NewSolver(ch, power.NewModel(ch), cb, qm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(cb.DefaultInput(), core.Speculative); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunAll regenerates every registered experiment under the given
// pool width, rendering to io.Discard — the full `cmd/accordion all`
// run as a benchmark.
func benchRunAll(b *testing.B, workers int) {
	b.Cleanup(parallel.SetWorkers(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		results, err := experiments.RunAll(context.Background(), experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderAll(io.Discard, results); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAll(b *testing.B)           { benchRunAll(b, 0) }

func BenchmarkKernelBtcmine(b *testing.B) { benchKernel(b, "btcmine") }

func BenchmarkVddSweep(b *testing.B) { runExperiment(b, "vddsweep") }

func BenchmarkCPIValidation(b *testing.B) { runExperiment(b, "cpi") }

func BenchmarkCorruptionWide(b *testing.B) { runExperiment(b, "corruptionwide") }

func BenchmarkCCRatio(b *testing.B) { runExperiment(b, "ccratio") }
