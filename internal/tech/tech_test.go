package tech

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default11nm().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Default22nm().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.VddNomNTV = 0.2 },
		func(p *Params) { p.VddNomSTV = 0.5 },
		func(p *Params) { p.FNomNTV = 0 },
		func(p *Params) { p.Alpha = 3 },
		func(p *Params) { p.PhiT = 0 },
		func(p *Params) { p.NPaths = 0 },
		func(p *Params) { p.SigmaCell = 0 },
	}
	for i, mutate := range cases {
		p := Default11nm()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestNominalCalibration(t *testing.T) {
	p := Default11nm()
	if f := p.Freq(p.VddNomNTV, p.VthNom); math.Abs(f-1.0) > 1e-9 {
		t.Errorf("NTV nominal f = %.4f GHz, want 1.0", f)
	}
	// Paper Table 2: the NTV point corresponds to ~3.3 GHz at STV.
	if f := p.FSTV(); f < 2.8 || f > 4.0 {
		t.Errorf("STV nominal f = %.3f GHz, want ~3.3", f)
	}
}

// Figure 1a bands: from STV (1.0 V) to NTV (~0.5 V), frequency degrades
// 5-10x, power drops 10-50x, energy/op improves 2-5x.
func TestFig1aBands(t *testing.T) {
	p := Default11nm()
	const vNTV = 0.50
	fRatio := p.FSTV() / p.Freq(vNTV, p.VthNom)
	if fRatio < 4.0 || fRatio > 10.5 {
		t.Errorf("f degradation at %.2f V = %.2fx, want ~5-10x", vNTV, fRatio)
	}
	pSTV := p.CorePower(p.VddNomSTV, p.VthNom, p.FSTV())
	pNTV := p.CorePower(vNTV, p.VthNom, p.Freq(vNTV, p.VthNom))
	pRatio := pSTV / pNTV
	if pRatio < 10 || pRatio > 50 {
		t.Errorf("power reduction = %.1fx, want 10-50x", pRatio)
	}
	eRatio := p.EnergyPerOp(p.VddNomSTV, p.VthNom) / p.EnergyPerOp(vNTV, p.VthNom)
	if eRatio < 2 || eRatio > 5 {
		t.Errorf("energy/op improvement = %.2fx, want 2-5x", eRatio)
	}
}

func TestEnergyMinimumBelowNTVNominal(t *testing.T) {
	// Figure 1a: the minimum-energy point lies below the NTV nominal
	// voltage (the paper's device data puts it in sub-threshold; this
	// model's leakage calibration lands it slightly above Vth, still
	// clearly below VddNomNTV — see EXPERIMENTS.md).
	p := Default11nm()
	best, bestV := math.Inf(1), 0.0
	for v := 0.15; v <= 1.1; v += 0.005 {
		e := p.EnergyPerOp(v, p.VthNom)
		if e < best {
			best, bestV = e, v
		}
	}
	if bestV >= p.VddNomNTV {
		t.Errorf("minimum-energy Vdd = %.3f, want below the NTV nominal %.2f", bestV, p.VddNomNTV)
	}
}

func TestFreqMonotoneInVdd(t *testing.T) {
	p := Default11nm()
	f := func(a, b float64) bool {
		v1 := 0.2 + math.Abs(math.Mod(a, 1))
		v2 := 0.2 + math.Abs(math.Mod(b, 1))
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return p.Freq(v1, p.VthNom) <= p.Freq(v2, p.VthNom)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqMonotoneDecreasingInVth(t *testing.T) {
	p := Default11nm()
	prev := math.Inf(1)
	for vth := 0.2; vth <= 0.5; vth += 0.01 {
		f := p.Freq(0.55, vth)
		if f > prev {
			t.Fatalf("Freq not decreasing in Vth at %.2f", vth)
		}
		prev = f
	}
}

func TestStaticShareHigherAtNTV(t *testing.T) {
	p := Default11nm()
	share := func(vdd float64) float64 {
		f := p.Freq(vdd, p.VthNom)
		st := p.StaticPower(vdd, p.VthNom)
		return st / (st + p.DynPower(vdd, f))
	}
	stv, ntv := share(p.VddNomSTV), share(p.VddNomNTV)
	if math.Abs(stv-p.StaticFracSTV) > 1e-9 {
		t.Errorf("STV static share = %.3f, want %.3f", stv, p.StaticFracSTV)
	}
	if ntv <= stv {
		t.Errorf("static share at NTV (%.3f) not higher than at STV (%.3f)", ntv, stv)
	}
}

func TestPerrShape(t *testing.T) {
	p := Default11nm()
	vdd, vth := 0.55, 0.33
	fmax := p.Freq(vdd, vth)
	// Well below fmax: error-free; at fmax: ~coin flip or worse given
	// 1000 near-critical paths; well above: certain error.
	if e := p.PerrPerCycle(0.5*fmax, vdd, vth); e > 1e-20 {
		t.Errorf("Perr at 0.5 fmax = %g, want ~0", e)
	}
	if e := p.PerrPerCycle(fmax, vdd, vth); e < 0.4 {
		t.Errorf("Perr at fmax = %g, want >= 0.4", e)
	}
	if e := p.PerrPerCycle(1.3*fmax, vdd, vth); e < 0.999 {
		t.Errorf("Perr at 1.3 fmax = %g, want ~1", e)
	}
	// Monotone non-decreasing in f.
	prev := -1.0
	for f := 0.1; f < 2; f += 0.01 {
		e := p.PerrPerCycle(f, vdd, vth)
		if e < prev-1e-15 {
			t.Fatalf("Perr not monotone at f=%.2f", f)
		}
		if e < 0 || e > 1 {
			t.Fatalf("Perr out of [0,1]: %g", e)
		}
		prev = e
	}
}

func TestFreqAtPerrInvertsPerr(t *testing.T) {
	p := Default11nm()
	vdd, vth := 0.55, 0.36
	for _, target := range []float64{1e-16, 1e-12, 1e-8, 1e-4, 1e-2} {
		f := p.FreqAtPerr(vdd, vth, target)
		got := p.PerrPerCycle(f, vdd, vth)
		if math.Abs(math.Log10(got)-math.Log10(target)) > 0.1 {
			t.Errorf("Perr(FreqAtPerr(%g)) = %g", target, got)
		}
	}
}

func TestSafeFreqBelowFmax(t *testing.T) {
	p := Default11nm()
	for _, vth := range []float64{0.28, 0.33, 0.40, 0.45} {
		safe := p.SafeFreq(0.55, vth)
		fmax := p.Freq(0.55, vth)
		if safe >= fmax {
			t.Errorf("safe f %.3f >= fmax %.3f at vth=%.2f", safe, fmax, vth)
		}
		if safe < 0.4*fmax {
			t.Errorf("safe f %.3f implausibly far below fmax %.3f", safe, fmax)
		}
	}
}

func TestSpeculativeFreqGain(t *testing.T) {
	// Paper 6.3: operating at realistic task-level error rates buys
	// 8-41% frequency over safe across the chip. At the model level the
	// gain from Perr 1e-16 to ~1e-11..1e-9 must land in single to low
	// double digits of percent.
	p := Default11nm()
	gain := p.FreqAtPerr(0.55, 0.38, 1e-10)/p.SafeFreq(0.55, 0.38) - 1
	if gain <= 0.0 || gain > 0.5 {
		t.Errorf("speculative f gain = %.1f%%, want within (0, 50]%%", gain*100)
	}
}

func TestBlockVddMIN(t *testing.T) {
	p := Default11nm()
	small := p.BlockVddMIN(0, 64*1024*8, 0)
	large := p.BlockVddMIN(0, 2*1024*1024*8, 0)
	if large <= small {
		t.Errorf("bigger block must need more voltage: %.3f vs %.3f", large, small)
	}
	// Paper Fig 5a: per-cluster VddMIN values land in ~0.46-0.58 V;
	// the nominal block values must sit inside that window.
	if small < 0.44 || large > 0.60 {
		t.Errorf("nominal VddMIN out of plausible band: %.3f / %.3f", small, large)
	}
	// Slow (high-Vth) blocks need more voltage.
	if p.BlockVddMIN(0.03, 1<<20, 0) <= p.BlockVddMIN(-0.03, 1<<20, 0) {
		t.Error("VddMIN not increasing in block Vth")
	}
	if p.BlockVddMIN(0, 0, 0) != p.VcellNom {
		t.Error("empty block should degenerate to cell nominal")
	}
}

func TestGuardbandGrowsTowardThreshold(t *testing.T) {
	// Figure 1c: guardbands are modest at high Vdd and explode as Vdd
	// approaches Vth, with 11nm (more variation) worse than 22nm.
	p11, p22 := Default11nm(), Default22nm()
	gbHigh := p11.Guardband(1.2, 0.15, 3)
	gbLow := p11.Guardband(0.5, 0.15, 3)
	if gbLow < 3*gbHigh {
		t.Errorf("guardband at 0.5 V (%.0f%%) should dwarf 1.2 V (%.0f%%)", gbLow, gbHigh)
	}
	if gbHigh > 100 {
		t.Errorf("guardband at 1.2 V = %.0f%%, implausibly large", gbHigh)
	}
	for _, v := range []float64{0.5, 0.7, 0.9, 1.1} {
		if p11.Guardband(v, 0.15, 3) <= p22.Guardband(v, 0.10, 3) {
			t.Errorf("11nm guardband not above 22nm at %.1f V", v)
		}
	}
}

func TestDelaySensExplodesNearThreshold(t *testing.T) {
	p := Default11nm()
	if p.DelaySens(0.45, 0.33) <= p.DelaySens(1.0, 0.33) {
		t.Error("delay sensitivity must grow as Vdd approaches Vth")
	}
}

func TestStaticPowerTemperature(t *testing.T) {
	p := Default11nm()
	base := p.StaticPower(0.55, p.VthNom)
	if at := p.StaticPowerAt(0.55, p.VthNom, p.TNom); math.Abs(at-base) > 1e-12 {
		t.Error("TNom leakage must equal the calibrated value")
	}
	// Doubling every 25 C.
	hot := p.StaticPowerAt(0.55, p.VthNom, p.TNom+25)
	if math.Abs(hot/base-2) > 1e-9 {
		t.Errorf("leakage at +25C = %.3fx, want 2x", hot/base)
	}
	cold := p.StaticPowerAt(0.55, p.VthNom, p.TNom-25)
	if math.Abs(cold/base-0.5) > 1e-9 {
		t.Errorf("leakage at -25C = %.3fx, want 0.5x", cold/base)
	}
	bad := Default11nm()
	bad.LeakTempCoeff = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative temperature coefficient accepted")
	}
}

func TestFreqAtPerrMonotoneProperty(t *testing.T) {
	p := Default11nm()
	f := func(a, b float64) bool {
		// Map arbitrary floats to error-rate exponents in [-16, -2].
		e1 := -16 + 14*math.Abs(math.Mod(a, 1))
		e2 := -16 + 14*math.Abs(math.Mod(b, 1))
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		p1 := math.Pow(10, e1)
		p2 := math.Pow(10, e2)
		// Tolerating more errors never slows the core.
		return p.FreqAtPerr(0.55, 0.36, p1) <= p.FreqAtPerr(0.55, 0.36, p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyPerOpInfiniteBelowCutoff(t *testing.T) {
	p := Default11nm()
	if !math.IsInf(p.EnergyPerOp(0, p.VthNom), 1) {
		t.Error("zero-Vdd energy should be infinite")
	}
}

// legacyFreqAtPerr is FreqAtPerr as written before it was split into
// Delay and PerrQuantile, with the calibration recomputed per call.
func legacyFreqAtPerr(p Params, vdd, vth, perr float64) float64 {
	freqK := p.FNomNTV / p.freqRaw(p.VddNomNTV, p.VthNom)
	fmax := freqK * p.freqRaw(vdd, vth)
	if fmax <= 0 {
		return 0
	}
	if perr >= 1 {
		perr = 0.5
	}
	mu := 1 / fmax
	sigma := p.delaySpread(vdd, vth) * mu
	n := float64(p.NPaths)
	var z float64
	if perr < 1e-6 {
		z = mathx.StdNormalTailQuantile(perr / n)
	} else {
		z = mathx.StdNormalTailQuantile(-math.Log1p(-perr) / n)
	}
	return 1 / (mu + z*sigma)
}

func TestFreqAtPerrSplitBitIdentical(t *testing.T) {
	for _, p := range []Params{Default11nm(), Default22nm()} {
		for _, vdd := range []float64{0, 0.45, 0.55, 0.7, 1.0} {
			for _, vth := range []float64{0.25, 0.33, 0.42} {
				d := p.Delay(vdd, vth)
				for _, perr := range []float64{1e-16, 1e-10, 1e-6, 2e-6, 1e-2, 0.5, 1, 2} {
					want := legacyFreqAtPerr(p, vdd, vth, perr)
					for _, got := range []float64{p.FreqAtPerr(vdd, vth, perr), d.FreqAt(p.PerrQuantile(perr))} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("vdd %g vth %g perr %g: %v, legacy %v", vdd, vth, perr, got, want)
						}
					}
					if vdd == 0 && want != 0 {
						t.Fatalf("vdd 0: frequency %v", want)
					}
				}
			}
		}
	}
}

func TestCalibrationCacheExact(t *testing.T) {
	// Alternating parameter sets miss the one-entry cache every call;
	// hits and misses must price identically to the uncached formulas.
	for i := 0; i < 4; i++ {
		for _, p := range []Params{Default11nm(), Default22nm()} {
			freqK := p.FNomNTV / p.freqRaw(p.VddNomNTV, p.VthNom)
			dynNom := p.DynPower(p.VddNomSTV, freqK*p.freqRaw(p.VddNomSTV, p.VthNom))
			staticK := dynNom * p.StaticFracSTV / (1 - p.StaticFracSTV) / p.staticRaw(p.VddNomSTV, p.VthNom)
			if math.Float64bits(p.freqK()) != math.Float64bits(freqK) ||
				math.Float64bits(p.staticK()) != math.Float64bits(staticK) {
				t.Fatalf("cached calibration (%v, %v) != (%v, %v)", p.freqK(), p.staticK(), freqK, staticK)
			}
		}
	}
}
