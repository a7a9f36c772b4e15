package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chip"
	"repro/internal/mathx"
	"repro/internal/power"
	"repro/internal/tech"
)

// refSolver rebuilds the solver's frequency table as it was first
// built, prefixMin[n][g]: the minimum CoreFreqAtPerr over the first n+1
// cores at grid error rate g, and re-implements Solve and SolveBest on
// it. The test below pins the running-minimum solver to the table it
// replaced, bit for bit.
type refSolver struct {
	s         *Solver
	prefixMin [][]float64
	fCC       float64
}

func newRefSolver(s *Solver) *refSolver {
	r := &refSolver{s: s}
	running := make([]float64, gridLen)
	for g := range running {
		running[g] = math.Inf(1)
	}
	for _, id := range s.order {
		row := make([]float64, gridLen)
		for g, perr := range perrGrid {
			if f := s.Chip.CoreFreqAtPerr(id, s.vdd, perr); f < running[g] {
				running[g] = f
			}
			row[g] = running[g]
		}
		r.prefixMin = append(r.prefixMin, row)
	}
	for i := range s.Chip.Cores {
		if f := s.Chip.CoreSafeFreq(i, s.vdd); f > r.fCC {
			r.fCC = f
		}
	}
	return r
}

func (r *refSolver) setFreq(n int, perr float64) float64 {
	lp := math.Log10(mathx.Clamp(perr, perrGrid[0], perrGrid[gridLen-1]))
	return mathx.InterpMonotone(logPerrGrid[:], r.prefixMin[n-1], lp)
}

// speculate is the iso-time loop body shared by Solve and SolveBest.
func (r *refSolver) speculate(ps float64, n int, flavor Flavor, perr float64) (f, perrOut float64) {
	f = r.setFreq(n, perr)
	if flavor == Speculative {
		for iter := 0; iter < 4; iter++ {
			perr = r.s.taskPerr(ps, n, f)
			f = r.setFreq(n, perr)
		}
		return f, perr
	}
	return f, tech.ErrorFreePerr
}

func (r *refSolver) solve(input float64, flavor Flavor) OperatingPoint {
	s := r.s
	ps := s.Bench.ProblemSize(input)
	target := s.STVTime()
	maxN := len(s.order)
	perr := tech.ErrorFreePerr
	for n := 1; n <= maxN; n++ {
		var f float64
		f, perr = r.speculate(ps, n, flavor, perr)
		if t := s.profile.ExecTime(ps, n, f, r.fCC); t <= target {
			return s.finishPoint(ps, input, flavor, n, f, perr, t)
		}
	}
	f := r.setFreq(maxN, perr)
	t := s.profile.ExecTime(ps, maxN, f, r.fCC)
	op := s.finishPoint(ps, input, flavor, maxN, f, perr, t)
	op.Feasible = false
	op.Limit = "cores"
	return op
}

func (r *refSolver) solveBest(input float64, flavor Flavor) OperatingPoint {
	s := r.s
	ps := s.Bench.ProblemSize(input)
	target := s.STVTime()
	var best OperatingPoint
	found := false
	perr := tech.ErrorFreePerr
	for n := 1; n <= len(s.order); n++ {
		var f float64
		f, perr = r.speculate(ps, n, flavor, perr)
		t := s.profile.ExecTime(ps, n, f, r.fCC)
		if t > target {
			continue
		}
		op := s.finishPoint(ps, input, flavor, n, f, perr, t)
		if op.Feasible && (!found || op.RelMIPSPerWatt > best.RelMIPSPerWatt) {
			best, found = op, true
		}
	}
	if !found {
		return r.solve(input, flavor)
	}
	return best
}

func TestSolverMatchesPrefixMinTable(t *testing.T) {
	_, _, b, qm := fixtures(t)
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{2014, 7, 99} {
		ch := f.Sample(seed)
		for _, granular := range []bool{false, true} {
			for _, policy := range []chip.SelectPolicy{chip.SelectEfficient, chip.SelectFastest} {
				s, err := NewSolver(ch, power.NewModel(ch), b, qm)
				if err != nil {
					t.Fatal(err)
				}
				s.SetClusterGranular(granular)
				s.SetPolicy(policy)
				ref := newRefSolver(s)
				if math.Float64bits(s.fCC) != math.Float64bits(ref.fCC) {
					t.Fatalf("seed %d: fCC %v, table %v", seed, s.fCC, ref.fCC)
				}
				for _, flavor := range []Flavor{Safe, Speculative} {
					front, err := s.Front(flavor)
					if err != nil {
						t.Fatal(err)
					}
					for i, input := range b.Sweep() {
						want := ref.solve(input, flavor)
						got, err := s.Solve(input, flavor)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(front[i], want) {
							t.Fatalf("seed %d granular %v %v %v input %g: Solve %+v, table %+v",
								seed, granular, policy, flavor, input, got, want)
						}
						best, err := s.SolveBest(input, flavor)
						if err != nil {
							t.Fatal(err)
						}
						if wantBest := ref.solveBest(input, flavor); !reflect.DeepEqual(best, wantBest) {
							t.Fatalf("seed %d granular %v %v %v input %g: SolveBest %+v, table %+v",
								seed, granular, policy, flavor, input, best, wantBest)
						}
					}
				}
			}
		}
	}
}

// Per-chip allocation budget of the population runner's path: a draw
// into a recycled chip, a power model, a solver and one Solve. Peak RSS
// of a Monte-Carlo population tracks the bytes it allocates per second,
// so a faster path must also stay this lean (see EXPERIMENTS.md,
// "Performance"). The path allocated ~135 KB in 359 allocations per
// chip before draws were recycled and the solver's per-prefix table
// was dropped.
const (
	popChipAllocBudget = 16
	popChipByteBudget  = 20 << 10
)

func TestPopulationChipAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so the pooled draw scratch reallocates")
	}
	_, _, b, qm := fixtures(t)
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ch := f.Sample(1)
	seed := int64(0)
	perChip := func() {
		seed++
		ch = f.SampleInto(ch, mathx.SplitSeed(5, seed))
		s, err := NewSolver(ch, power.NewModel(ch), b, qm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(b.DefaultInput(), Speculative); err != nil {
			t.Fatal(err)
		}
	}
	perChip() // fill the draw pool and the calibration cache
	allocs := testing.AllocsPerRun(50, perChip)

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		perChip()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("population chip: %.0f allocs, %.0f B", allocs, bytes)
	if allocs > popChipAllocBudget {
		t.Errorf("population chip path made %.0f allocations, budget %d", allocs, popChipAllocBudget)
	}
	if bytes > popChipByteBudget {
		t.Errorf("population chip path allocated %.0f B, budget %d", bytes, popChipByteBudget)
	}
}
