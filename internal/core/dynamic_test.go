package core

import (
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/power"
)

func testController(t *testing.T, rate float64) *Controller {
	t.Helper()
	ch, err := chip.New(chip.DefaultConfig(), 2014)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(ch, power.NewModel(ch), DefaultDrift(), rate)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDriftModelProperties(t *testing.T) {
	d := DefaultDrift()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	if d.Shift(5, 10) != d.Shift(5, 10) {
		t.Fatal("drift not deterministic")
	}
	// Bounded by amplitude + aging.
	for core := 0; core < 20; core++ {
		for e := 0; e < 100; e++ {
			s := d.Shift(core, e)
			bound := d.Amplitude + d.AgingPerEpoch*float64(e) + 1e-12
			if math.Abs(s) > bound {
				t.Fatalf("shift %g exceeds bound %g", s, bound)
			}
		}
	}
	// Aging pushes the mean up over time.
	var early, late float64
	for core := 0; core < 50; core++ {
		early += d.Shift(core, 0)
		late += d.Shift(core, 200)
	}
	if late <= early {
		t.Error("aging ramp missing")
	}
	// Different cores drift out of phase.
	same := true
	for e := 0; e < 10; e++ {
		if d.Shift(0, e) != d.Shift(1, e) {
			same = false
			break
		}
	}
	if same {
		t.Error("cores drift in lockstep")
	}
	// Zero drift shifts nothing.
	if (DriftModel{Period: 1}).Shift(3, 7) != 0 {
		t.Error("zero model shifts")
	}
	bad := DriftModel{Amplitude: -1, Period: 1}
	if err := bad.Validate(); err == nil {
		t.Error("negative amplitude accepted")
	}
}

func TestControllerValidation(t *testing.T) {
	ch, err := chip.New(chip.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(ch, power.NewModel(ch), DefaultDrift(), 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewController(ch, power.NewModel(ch), DriftModel{Period: 0}, 1); err == nil {
		t.Error("invalid drift accepted")
	}
	c := testController(t, 10)
	if _, err := c.Run(0, true); err == nil {
		t.Error("zero epochs accepted")
	}
	cHuge := testController(t, 10)
	cHuge.RequiredRate = 1e9
	if _, err := cHuge.Run(4, true); err == nil {
		t.Error("unreachable rate accepted")
	}
}

func TestStaticScheduleMissesUnderDrift(t *testing.T) {
	c := testController(t, 40) // ~80 cores at ~0.5 GHz
	static, err := c.Run(96, false)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := c.Run(96, true)
	if err != nil {
		t.Fatal(err)
	}
	// Drift must actually bite the static schedule...
	if static.MissedEpochs == 0 {
		t.Error("drift never violated the static assignment; the experiment is vacuous")
	}
	// ...and the dynamic controller must recover most of it.
	if dynamic.MissedEpochs >= static.MissedEpochs {
		t.Errorf("dynamic (%d misses) not better than static (%d)", dynamic.MissedEpochs, static.MissedEpochs)
	}
	if dynamic.Reconfigs == 0 {
		t.Error("dynamic run never reconfigured")
	}
	if dynamic.TotalSwaps == 0 {
		t.Error("reconfigurations swapped no cores")
	}
	if len(static.Epochs) != 96 || len(dynamic.Epochs) != 96 {
		t.Fatal("wrong epoch counts")
	}
}

func TestControllerDeterminism(t *testing.T) {
	a, err := testController(t, 30).Run(48, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testController(t, 30).Run(48, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.MissedEpochs != b.MissedEpochs || a.Reconfigs != b.Reconfigs ||
		a.MeanPower != b.MeanPower {
		t.Error("controller runs differ")
	}
}

func TestPlanMinimality(t *testing.T) {
	c := testController(t, 30)
	vdd := c.Chip.VddNTV()
	set := c.plan(0, vdd)
	if set == nil {
		t.Fatal("no plan")
	}
	rate, _ := c.setRate(set, 0, vdd)
	if rate < c.RequiredRate {
		t.Errorf("plan rate %.1f below requirement %.1f", rate, c.RequiredRate)
	}
	// Dropping the slowest member must break the headroom'd target —
	// minimality of the prefix.
	if len(set) > 1 {
		smaller := set[:len(set)-1]
		r2, _ := c.setRate(smaller, 0, vdd)
		if r2 >= c.RequiredRate*(1+c.Headroom) {
			t.Error("plan is not minimal")
		}
	}
}

func TestCoreFreqAtMatchesFreqAtPerr(t *testing.T) {
	c := testController(t, 100)
	tp := c.Chip.Cfg.Tech
	vdd := c.Chip.VddNTV()
	for _, perr := range []float64{1e-16, 1e-9, 1e-3} {
		c.Perr = perr
		z := tp.PerrQuantile(perr)
		for _, epoch := range []int{0, 7, 40} {
			for i, co := range c.Chip.Cores {
				vth := co.Vth(tp) + c.shift(i, epoch)
				want := tp.FreqAtPerr(vdd, vth, perr) / (1 + co.LeffDev)
				if got := c.coreFreqAt(i, epoch, vdd, z); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("perr %g epoch %d core %d: %v, FreqAtPerr %v", perr, epoch, i, got, want)
				}
			}
		}
	}
}
