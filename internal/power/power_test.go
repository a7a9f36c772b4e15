package power

import (
	"math"
	"testing"

	"repro/internal/chip"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	ch, err := chip.New(chip.DefaultConfig(), 2014)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(ch)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEngagedBreakdown(t *testing.T) {
	m := testModel(t)
	vdd := m.Chip.VddNTV()
	cores := []int{0, 1, 2, 3}
	b := m.Engaged(cores, vdd, 0.5)
	if b.CoreDynamic <= 0 || b.CoreStatic <= 0 || b.Memory <= 0 || b.Network <= 0 {
		t.Fatalf("non-positive components: %+v", b)
	}
	if math.Abs(b.Total()-(b.CoreDynamic+b.CoreStatic+b.Memory+b.Network)) > 1e-12 {
		t.Error("Total does not sum components")
	}
	// All four cores share cluster 0: exactly one memory block active.
	spread := m.Engaged([]int{0, 8, 16, 24}, vdd, 0.5)
	if spread.Memory <= b.Memory {
		t.Error("spreading cores across clusters must activate more memory")
	}
}

func TestEmptySetZeroPower(t *testing.T) {
	m := testModel(t)
	if got := m.Engaged(nil, 0.55, 1.0).Total(); got != 0 {
		t.Errorf("empty set draws %.3f W", got)
	}
}

func TestPowerMonotoneInCoresAndFreq(t *testing.T) {
	m := testModel(t)
	vdd := m.Chip.VddNTV()
	sel := m.Chip.SelectCores(288, vdd, chip.SelectEfficient)
	prev := 0.0
	for n := 1; n <= 288; n += 32 {
		p := m.Engaged(sel[:n], vdd, 0.5).Total()
		if p <= prev {
			t.Fatalf("power not increasing in N at n=%d", n)
		}
		prev = p
	}
	if m.Engaged(sel[:10], vdd, 0.4).Total() >= m.Engaged(sel[:10], vdd, 0.8).Total() {
		t.Error("power not increasing in f")
	}
}

// The STV baseline must land near the paper's implied operating point:
// NSTV around 15-16 cores saturating the 100 W budget at ~3.3 GHz, so
// that NNTV/NSTV ratios up to ~18 (Fig 6 x-axes) map onto the 288-core
// chip.
func TestBaselineCalibration(t *testing.T) {
	m := testModel(t)
	bl := m.Baseline()
	if bl.N < 12 || bl.N > 20 {
		t.Errorf("NSTV = %d, want ~15", bl.N)
	}
	if bl.Freq < 2.8 || bl.Freq > 4.0 {
		t.Errorf("fSTV = %.2f GHz, want ~3.3", bl.Freq)
	}
	if bl.Power > m.Budget() {
		t.Errorf("baseline power %.1f exceeds budget %.1f", bl.Power, m.Budget())
	}
	if bl.Power < 0.8*m.Budget() {
		t.Errorf("baseline power %.1f leaves budget badly unused", bl.Power)
	}
	if len(bl.Cores) != bl.N {
		t.Error("core list length mismatch")
	}
	// One more core must blow the budget.
	all := m.Chip.SelectCores(288, bl.Vdd, chip.SelectEfficient)
	if m.WithinBudget(all[:bl.N+1], bl.Vdd, bl.Freq) {
		t.Error("baseline is not maximal")
	}
}

// The NTC promise: at VddNTV the budget fits many times more cores than
// at STV (paper: 10-50x power reduction enables the 288-core design).
func TestNTVFitsManyMoreCores(t *testing.T) {
	m := testModel(t)
	bl := m.Baseline()
	vddNTV := m.Chip.VddNTV()
	// Price cores at a typical NTV frequency.
	nNTV := m.MaxCoresAt(vddNTV, 0.5, chip.SelectEfficient)
	if ratio := float64(nNTV) / float64(bl.N); ratio < 5 {
		t.Errorf("NTV fits only %.1fx the STV cores (%d vs %d)", ratio, nNTV, bl.N)
	}
}

func TestMaxCoresAtBoundary(t *testing.T) {
	m := testModel(t)
	vdd := m.Chip.VddNTV()
	n := m.MaxCoresAt(vdd, 0.5, chip.SelectEfficient)
	sel := m.Chip.SelectCores(288, vdd, chip.SelectEfficient)
	if n > 0 && !m.WithinBudget(sel[:n], vdd, 0.5) {
		t.Error("MaxCoresAt result over budget")
	}
	if n < 288 && m.WithinBudget(sel[:n+1], vdd, 0.5) {
		t.Error("MaxCoresAt not maximal")
	}
	// At an absurdly high frequency nothing fits... but at zero f some do.
	if m.MaxCoresAt(vdd, 1000, chip.SelectEfficient) > m.MaxCoresAt(vdd, 0.5, chip.SelectEfficient) {
		t.Error("higher f should not fit more cores")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Model{}).Validate(); err == nil {
		t.Error("nil chip accepted")
	}
	m := testModel(t)
	m.NetworkFracDyn = -1
	if err := m.Validate(); err == nil {
		t.Error("negative coefficient accepted")
	}
}

func TestEngagedThermalCoupling(t *testing.T) {
	m := testModel(t)
	vdd := m.Chip.VddNTV()
	cores := m.Chip.SelectCores(128, vdd, chip.SelectEfficient)
	plain := m.Engaged(cores, vdd, 0.5)
	coupled, temp := m.EngagedThermal(cores, vdd, 0.5)
	// Temperature rises above ambient with load.
	if temp <= m.TAmbient {
		t.Errorf("die temperature %.1f C not above ambient %.1f C", temp, m.TAmbient)
	}
	// Dynamic power is temperature-independent; only leakage scales.
	if coupled.CoreDynamic != plain.CoreDynamic || coupled.Network != plain.Network {
		t.Error("thermal coupling touched dynamic components")
	}
	// Below the calibration temperature leakage shrinks; above it grows.
	tp := m.Chip.Cfg.Tech
	if temp < tp.TNom && coupled.CoreStatic >= plain.CoreStatic {
		t.Error("leakage did not shrink below TNom")
	}
	if temp > tp.TNom && coupled.CoreStatic <= plain.CoreStatic {
		t.Error("leakage did not grow above TNom")
	}
	// A heavier load runs hotter.
	_, tempHot := m.EngagedThermal(m.Chip.SelectCores(288, vdd, chip.SelectEfficient), vdd, 0.6)
	if tempHot <= temp {
		t.Error("more power should heat the die more")
	}
}

func TestThermalCalibrationAtBudget(t *testing.T) {
	// At roughly the PMAX budget the die should sit near the Table 2
	// TMIN = 80 C the leakage was calibrated at.
	m := testModel(t)
	bl := m.Baseline()
	_, temp := m.EngagedThermal(bl.Cores, bl.Vdd, bl.Freq)
	if temp < 70 || temp > 92 {
		t.Errorf("budget-level temperature %.1f C far from the 80 C calibration point", temp)
	}
}

func TestBaselineMatchesPrefixRepricing(t *testing.T) {
	for _, seed := range []int64{2014, 3, 41} {
		ch, err := chip.New(chip.DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(ch)
		// The O(N^2) loop Baseline used to run: re-price every prefix.
		tp := ch.Cfg.Tech
		vdd, f := tp.VddNomSTV, tp.FSTV()
		all := ch.SelectCores(len(ch.Cores), vdd, chip.SelectEfficient)
		n := 0
		for n < len(all) && m.WithinBudget(all[:n+1], vdd, f) {
			n++
		}
		want := m.Engaged(all[:n], vdd, f).Total()
		b := m.Baseline()
		if b.N != n || math.Float64bits(b.Power) != math.Float64bits(want) {
			t.Fatalf("seed %d: baseline N=%d P=%v, re-priced N=%d P=%v", seed, b.N, b.Power, n, want)
		}
	}
}

func TestEngagedDoesNotAllocate(t *testing.T) {
	m := testModel(t)
	cores := m.Chip.SelectCores(100, m.Chip.VddNTV(), chip.SelectEfficient)
	if a := testing.AllocsPerRun(100, func() { m.Engaged(cores, m.Chip.VddNTV(), 0.5) }); a != 0 {
		t.Errorf("Engaged made %.0f allocations", a)
	}
}
