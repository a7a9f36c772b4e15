package core

import (
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/mathx"
	"repro/internal/power"
	"repro/internal/tech"
)

// This file implements the paper's Section 7 open question: dynamic
// orchestration of Accordion at runtime. The problem size cannot change
// mid-execution, but the number of cores assigned to computation can —
// and both the application phases and the hardware experience
// resiliency changes while running (temperature, supply droop, aging).
// DriftModel perturbs per-core threshold voltages over execution
// epochs; Controller re-solves the core assignment each epoch and is
// compared against the static assignment the paper evaluates.

// DriftModel is a smooth, deterministic per-core Vth drift over epochs:
// each core follows its own superposition of slow sinusoids (thermal
// time constants) plus a linear aging ramp.
type DriftModel struct {
	// Amplitude is the peak sinusoidal Vth excursion in volts
	// (e.g. 0.01 for a 10 mV thermal swing).
	Amplitude float64
	// AgingPerEpoch is the monotone Vth increase per epoch in volts
	// (BTI-style aging; 0 disables).
	AgingPerEpoch float64
	// Period is the dominant drift period in epochs.
	Period float64
	// Seed decorrelates the per-core phases.
	Seed int64
}

// DefaultDrift returns a mild thermal-plus-aging drift.
func DefaultDrift() DriftModel {
	return DriftModel{Amplitude: 0.010, AgingPerEpoch: 0.00012, Period: 24, Seed: 99}
}

// Validate reports the first implausible field, or nil.
func (d DriftModel) Validate() error {
	if d.Amplitude < 0 || d.AgingPerEpoch < 0 {
		return fmt.Errorf("core: negative drift magnitudes")
	}
	if d.Period <= 0 {
		return fmt.Errorf("core: drift period must be positive")
	}
	return nil
}

// corePhases derives core i's two sinusoid phases. They are a pure
// function of (Seed, core), but drawing them costs a fresh RNG — a 5 KB
// lagged-Fibonacci state — so callers evaluating many epochs cache them
// (the Controller keeps a per-core table).
func (d DriftModel) corePhases(core int) (phase, phase2 float64) {
	rng := mathx.NewRNG(mathx.SplitSeed(d.Seed, int64(core)))
	return rng.Uniform(0, 2*math.Pi), rng.Uniform(0, 2*math.Pi)
}

// shiftAt evaluates the drift at an epoch given precomputed phases.
func (d DriftModel) shiftAt(epoch int, phase, phase2 float64) float64 {
	w := 2 * math.Pi / d.Period
	t := float64(epoch)
	s := 0.7*math.Sin(w*t+phase) + 0.3*math.Sin(2.3*w*t+phase2)
	return d.Amplitude*s + d.AgingPerEpoch*t
}

// Shift returns core i's Vth shift in volts at the given epoch.
func (d DriftModel) Shift(core, epoch int) float64 {
	if d.Amplitude == 0 && d.AgingPerEpoch == 0 {
		return 0
	}
	phase, phase2 := d.corePhases(core)
	return d.shiftAt(epoch, phase, phase2)
}

// EpochOutcome records one epoch of a (static or dynamic) schedule.
type EpochOutcome struct {
	Epoch    int
	N        int
	Freq     float64 // GHz, common frequency of the engaged set
	Power    float64 // W
	MetRate  bool    // whether the epoch sustained the required rate
	Swapped  int     // cores changed versus the previous epoch
	Resolved bool    // whether the controller re-solved this epoch
}

// DynamicStats aggregates a run.
type DynamicStats struct {
	Epochs       []EpochOutcome
	MissedEpochs int
	Reconfigs    int
	TotalSwaps   int
	MeanPower    float64
	MeanFreq     float64
}

// Controller re-assigns cores across execution epochs to sustain a
// required aggregate compute rate under Vth drift.
type Controller struct {
	Chip  *chip.Chip
	Power *power.Model
	Drift DriftModel

	// RequiredRate is the aggregate effective GHz the engaged set must
	// sustain (N * f at the common frequency).
	RequiredRate float64
	// Perr is the per-cycle error-rate target (ErrorFreePerr for Safe).
	Perr float64
	// Headroom deflates the nominal safe frequency when planning, so a
	// small drift does not immediately violate the rate (0.05 = 5%).
	Headroom float64

	// phases caches each core's drift sinusoid phases; deriving them
	// costs a fresh 5 KB RNG per (core, epoch) otherwise. Controllers
	// are driven from one goroutine (Run is sequential), so the lazy
	// fill needs no locking.
	phases [][2]float64
	// cands is plan's reusable sort scratch.
	cands []coreFreq
}

// coreFreq pairs a core id with its drift-adjusted frequency; plan
// sorts a slice of these each epoch.
type coreFreq struct {
	id int
	f  float64
}

// shift returns core i's drift at an epoch through the phase cache,
// bit-identical to Drift.Shift.
func (c *Controller) shift(i, epoch int) float64 {
	if c.Drift.Amplitude == 0 && c.Drift.AgingPerEpoch == 0 {
		return 0
	}
	if c.phases == nil {
		c.phases = make([][2]float64, len(c.Chip.Cores))
		for core := range c.phases {
			p1, p2 := c.Drift.corePhases(core)
			c.phases[core] = [2]float64{p1, p2}
		}
	}
	return c.Drift.shiftAt(epoch, c.phases[i][0], c.phases[i][1])
}

// NewController validates and builds a controller.
func NewController(ch *chip.Chip, pm *power.Model, drift DriftModel, requiredRate float64) (*Controller, error) {
	if err := drift.Validate(); err != nil {
		return nil, err
	}
	if requiredRate <= 0 {
		return nil, fmt.Errorf("core: required rate must be positive")
	}
	return &Controller{
		Chip:  ch,
		Power: pm,
		Drift: drift,

		RequiredRate: requiredRate,
		Perr:         tech.ErrorFreePerr,
		Headroom:     0.08,
	}, nil
}

// coreFreqAt returns core i's frequency with the epoch's drift
// applied, at z = PerrQuantile(c.Perr), which every core of an epoch
// shares. It is bit-identical to
// FreqAtPerr(vdd, drifted vth, c.Perr) / (1 + LeffDev).
func (c *Controller) coreFreqAt(i, epoch int, vdd, z float64) float64 {
	co := c.Chip.Cores[i]
	vth := co.Vth(c.Chip.Cfg.Tech) + c.shift(i, epoch)
	return c.Chip.Cfg.Tech.Delay(vdd, vth).FreqAt(z) / (1 + co.LeffDev)
}

// setRate returns the aggregate rate (N * min f) of a core set at an
// epoch.
func (c *Controller) setRate(cores []int, epoch int, vdd float64) (rate, minF float64) {
	if len(cores) == 0 {
		return 0, 0
	}
	z := c.Chip.Cfg.Tech.PerrQuantile(c.Perr)
	minF = math.Inf(1)
	for _, i := range cores {
		if f := c.coreFreqAt(i, epoch, vdd, z); f < minF {
			minF = f
		}
	}
	return float64(len(cores)) * minF, minF
}

// plan picks the cheapest engaged set sustaining the required rate at
// an epoch: cores sorted by drift-adjusted frequency, prefix-scanned
// for the smallest N whose N*minF clears the target with headroom.
func (c *Controller) plan(epoch int, vdd float64) []int {
	n := len(c.Chip.Cores)
	if cap(c.cands) < n {
		c.cands = make([]coreFreq, n)
	}
	cands := c.cands[:n]
	z := c.Chip.Cfg.Tech.PerrQuantile(c.Perr)
	for i := 0; i < n; i++ {
		cands[i] = coreFreq{i, c.coreFreqAt(i, epoch, vdd, z)}
	}
	// Sort descending by frequency (insertion into sorted slice via
	// simple sort).
	for a := 1; a < n; a++ {
		for b := a; b > 0 && cands[b].f > cands[b-1].f; b-- {
			cands[b], cands[b-1] = cands[b-1], cands[b]
		}
	}
	target := c.RequiredRate * (1 + c.Headroom)
	best := []int(nil)
	for k := 1; k <= n; k++ {
		// The k fastest cores run at the k-th core's frequency.
		rate := float64(k) * cands[k-1].f
		if rate >= target {
			ids := make([]int, k)
			for j := 0; j < k; j++ {
				ids[j] = cands[j].id
			}
			best = ids
			break
		}
	}
	return best
}

// Run simulates epochs under drift. If dynamic is false the epoch-0
// assignment persists (the paper's static allocation); otherwise the
// controller re-plans whenever the current set misses the rate.
func (c *Controller) Run(epochs int, dynamic bool) (DynamicStats, error) {
	if epochs <= 0 {
		return DynamicStats{}, fmt.Errorf("core: need a positive epoch count")
	}
	vdd := c.Chip.VddNTV()
	current := c.plan(0, vdd)
	if current == nil {
		return DynamicStats{}, fmt.Errorf("core: required rate %.1f GHz unreachable on this chip", c.RequiredRate)
	}
	var stats DynamicStats
	prev := map[int]bool{}
	for _, id := range current {
		prev[id] = true
	}
	for e := 0; e < epochs; e++ {
		rate, minF := c.setRate(current, e, vdd)
		met := rate >= c.RequiredRate
		out := EpochOutcome{Epoch: e, N: len(current), Freq: minF, MetRate: met}
		if !met && dynamic {
			if replanned := c.plan(e, vdd); replanned != nil {
				current = replanned
				out.Resolved = true
				stats.Reconfigs++
				swaps := 0
				next := map[int]bool{}
				for _, id := range current {
					next[id] = true
					if !prev[id] {
						swaps++
					}
				}
				prev = next
				out.Swapped = swaps
				stats.TotalSwaps += swaps
				rate, minF = c.setRate(current, e, vdd)
				met = rate >= c.RequiredRate
				out.N, out.Freq, out.MetRate = len(current), minF, met
			}
		}
		if !met {
			stats.MissedEpochs++
		}
		out.Power = c.Power.Engaged(current, vdd, minF).Total()
		stats.MeanPower += out.Power
		stats.MeanFreq += minF
		stats.Epochs = append(stats.Epochs, out)
	}
	stats.MeanPower /= float64(epochs)
	stats.MeanFreq /= float64(epochs)
	return stats, nil
}
