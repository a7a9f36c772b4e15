// Package tech models the 11nm device technology underlying the
// Accordion study: operating frequency as a function of (Vdd, Vth)
// across the super-, near- and sub-threshold regions, dynamic and
// static power, energy per operation, variation-induced timing error
// rates, SRAM minimum operating voltage, and worst-case timing
// guardbands.
//
// The paper derived these from ITRS 2011 projections, McPAT, and the
// VARIUS-NTV model. This package substitutes closed-form transregional
// device models (an EKV-style soft-plus drain-current law, subthreshold
// leakage with DIBL, and Gaussian critical-path-delay statistics)
// calibrated to the paper's Table 2 operating points: VddNOM = 0.55 V,
// VthNOM = 0.33 V, fNOM = 1.0 GHz at NTV, corresponding to roughly
// 1.0 V / 3.3 GHz at STV.
package tech

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mathx"
)

// Params collects the technology parameters. The zero value is not
// usable; start from Default11nm (or Default22nm for the guardband
// comparison) and override fields as needed.
type Params struct {
	// Nominal operating points (Table 2).
	VddNomNTV float64 // V, near-threshold nominal supply (0.55)
	VddNomSTV float64 // V, super-threshold nominal supply (1.0)
	VthNom    float64 // V, nominal threshold voltage (0.33)
	FNomNTV   float64 // GHz, nominal NTV frequency (1.0)

	// Transregional frequency model: f = K * S(Vdd-Vth)^Alpha / Vdd
	// with S the soft-plus current onset of width 2*Nideal*PhiT.
	Alpha  float64 // velocity-saturation exponent (~1.7 at 11nm)
	Nideal float64 // subthreshold ideality factor
	PhiT   float64 // V, thermal voltage at operating temperature

	// Power model.
	CEff          float64 // F, effective switched capacitance per core
	StaticFracSTV float64 // static share of core power at the STV nominal point
	EtaDIBL       float64 // drain-induced barrier lowering coefficient
	NsubPhiT      float64 // V, subthreshold slope parameter n_s * phi_t

	// Timing-error model: per-cycle error probability from NPaths
	// near-critical paths with Gaussian delay of relative spread
	// sigma_d/mu_d = DelaySens(Vdd,Vth) * SigmaVthPath.
	NPaths       int     // near-critical paths per core
	SigmaVthPath float64 // V, effective path-level Vth sigma

	// SRAM VddMIN model: the weakest of a block's cells sets its
	// minimum voltage; the expected weakest-cell requirement is
	// Vc0 + BetaVth*(VthBlock-VthNom) + SigmaCell*sqrt(2 ln Ncells).
	VcellNom  float64 // V, median single-cell minimum voltage
	BetaVth   float64 // cell VddMIN sensitivity to local Vth shift
	SigmaCell float64 // V, cell-to-cell VddMIN spread

	// Thermal model: leakage is calibrated at TNom (Table 2's
	// TMIN = 80 C) and grows exponentially with temperature at
	// LeakTempCoeff per degree C (subthreshold current roughly doubles
	// every ~25 C, i.e. coeff = ln2/25).
	TNom          float64 // C, leakage calibration temperature
	LeakTempCoeff float64 // 1/C
}

// Default11nm returns the 11nm parameter set used throughout the
// reproduction, calibrated against the paper's Table 2 and Figure 1.
func Default11nm() Params {
	return Params{
		VddNomNTV:     0.55,
		VddNomSTV:     1.0,
		VthNom:        0.33,
		FNomNTV:       1.0,
		Alpha:         1.7,
		Nideal:        1.5,
		PhiT:          0.026,
		CEff:          1.50e-9, // calibrated for ~6.2 W/core at STV nominal
		StaticFracSTV: 0.20,
		EtaDIBL:       0.06,
		NsubPhiT:      0.039,
		NPaths:        1000,
		SigmaVthPath:  0.010,
		VcellNom:      0.40,
		BetaVth:       0.65,
		SigmaCell:     0.011,
		TNom:          80,
		LeakTempCoeff: math.Ln2 / 25,
	}
}

// Default22nm returns a 22nm parameter set with the milder variation of
// the older node; it exists for the Figure 1c guardband comparison.
func Default22nm() Params {
	p := Default11nm()
	p.VthNom = 0.32
	p.SigmaVthPath = 0.007
	return p
}

// Validate reports the first implausible parameter, or nil.
func (p Params) Validate() error {
	switch {
	case p.VddNomNTV <= p.VthNom:
		return fmt.Errorf("tech: NTV nominal Vdd %.3f must exceed Vth %.3f", p.VddNomNTV, p.VthNom)
	case p.VddNomSTV <= p.VddNomNTV:
		return fmt.Errorf("tech: STV Vdd %.3f must exceed NTV Vdd %.3f", p.VddNomSTV, p.VddNomNTV)
	case p.FNomNTV <= 0:
		return fmt.Errorf("tech: nominal frequency must be positive")
	case p.Alpha < 1 || p.Alpha > 2:
		return fmt.Errorf("tech: alpha %.2f outside [1, 2]", p.Alpha)
	case p.Nideal <= 0 || p.PhiT <= 0 || p.NsubPhiT <= 0:
		return fmt.Errorf("tech: ideality/thermal parameters must be positive")
	case p.NPaths <= 0:
		return fmt.Errorf("tech: NPaths must be positive")
	case p.SigmaVthPath <= 0 || p.SigmaCell <= 0:
		return fmt.Errorf("tech: variation sigmas must be positive")
	case p.LeakTempCoeff < 0:
		return fmt.Errorf("tech: leakage temperature coefficient must be non-negative")
	}
	return nil
}

// softPlus returns the smoothed current-onset term
// S(u) = 2 n phiT ln(1 + exp(u / (2 n phiT))), which tends to u for
// strong inversion and to an exponential below threshold.
func (p Params) softPlus(u float64) float64 {
	w := 2 * p.Nideal * p.PhiT
	x := u / w
	if x > 40 { // avoid overflow; softplus(x) == x to double precision
		return u
	}
	return w * math.Log1p(math.Exp(x))
}

// softPlusSlope returns dS/du, the logistic sigmoid.
func (p Params) softPlusSlope(u float64) float64 {
	w := 2 * p.Nideal * p.PhiT
	return 1 / (1 + math.Exp(-u/w))
}

// freqRaw is the uncalibrated frequency shape S(Vdd-Vth)^alpha / Vdd.
func (p Params) freqRaw(vdd, vth float64) float64 {
	if vdd <= 0 {
		return 0
	}
	return p.freqShape(vdd, p.softPlus(vdd-vth))
}

// freqShape is freqRaw given the soft-plus term s = S(Vdd-Vth).
func (p Params) freqShape(vdd, s float64) float64 { return math.Pow(s, p.Alpha) / vdd }

// calibration holds the constants that depend on the Params alone:
// freqK and staticK.
type calibration struct {
	p       Params
	freqK   float64
	staticK float64
}

// lastCal is a one-entry cache of the calibration of the Params most
// recently priced. A process works with one parameter set at a time
// (Default11nm, or Default22nm for Figure 1c's comparison), so one
// entry turns the transcendental calibration terms of every Freq and
// StaticPower call into a struct comparison. A miss recomputes the
// same values, so results never depend on the cache.
var lastCal atomic.Pointer[calibration]

// cal returns p's calibration, computing and caching it on a miss.
func (p Params) cal() *calibration {
	if c := lastCal.Load(); c != nil && c.p == p {
		return c
	}
	c := &calibration{p: p}
	c.freqK = p.FNomNTV / p.freqRaw(p.VddNomNTV, p.VthNom)
	fstv := c.freqK * p.freqRaw(p.VddNomSTV, p.VthNom)
	dynNom := p.DynPower(p.VddNomSTV, fstv)
	statNom := dynNom * p.StaticFracSTV / (1 - p.StaticFracSTV)
	c.staticK = statNom / p.staticRaw(p.VddNomSTV, p.VthNom)
	lastCal.Store(c)
	return c
}

// freqK returns the calibration constant mapping freqRaw to GHz such
// that Freq(VddNomNTV, VthNom) == FNomNTV.
func (p Params) freqK() float64 { return p.cal().freqK }

// Freq returns the maximum operating frequency in GHz of a core with
// threshold voltage vth at supply vdd, absent any timing margin.
func (p Params) Freq(vdd, vth float64) float64 {
	return p.freqK() * p.freqRaw(vdd, vth)
}

// FSTV returns the super-threshold nominal frequency implied by the
// model (~3.3 GHz for the default 11nm parameters).
func (p Params) FSTV() float64 { return p.Freq(p.VddNomSTV, p.VthNom) }

// DynPower returns the dynamic power in W of one core switching its
// effective capacitance at frequency f GHz under supply vdd.
func (p Params) DynPower(vdd, f float64) float64 {
	return p.CEff * vdd * vdd * f * 1e9
}

// staticK returns the leakage calibration constant such that the static
// share of core power at the STV nominal point equals StaticFracSTV.
func (p Params) staticK() float64 { return p.cal().staticK }

// staticRaw is the uncalibrated leakage power shape
// Vdd * exp((-Vth + eta*Vdd) / (n_s phi_t)).
func (p Params) staticRaw(vdd, vth float64) float64 {
	return vdd * math.Exp((-vth+p.EtaDIBL*vdd)/p.NsubPhiT)
}

// StaticPower returns the leakage power in W of one core with threshold
// vth at supply vdd, at the calibration temperature TNom.
func (p Params) StaticPower(vdd, vth float64) float64 {
	return p.staticK() * p.staticRaw(vdd, vth)
}

// StaticPowerAt returns the leakage power at temperature tempC, scaling
// the TNom-calibrated leakage by exp(LeakTempCoeff * (tempC - TNom)).
func (p Params) StaticPowerAt(vdd, vth, tempC float64) float64 {
	return p.StaticPower(vdd, vth) * math.Exp(p.LeakTempCoeff*(tempC-p.TNom))
}

// CorePower returns total (dynamic + static) core power in W at supply
// vdd, threshold vth, running at f GHz. A gated-off core (f == 0) still
// leaks unless vdd is zero.
func (p Params) CorePower(vdd, vth, f float64) float64 {
	return p.DynPower(vdd, f) + p.StaticPower(vdd, vth)
}

// EnergyPerOp returns the energy per operation in nJ for a core running
// flat-out at its maximum frequency for the given operating point.
func (p Params) EnergyPerOp(vdd, vth float64) float64 {
	f := p.Freq(vdd, vth)
	if f <= 0 {
		return math.Inf(1)
	}
	return p.CorePower(vdd, vth, f) / (f * 1e9) * 1e9
}

// DelaySens returns the logarithmic sensitivity of path delay to
// threshold voltage, d ln(delay) / d Vth, in 1/V. It grows steeply as
// Vdd approaches Vth, which is what makes NTC so vulnerable to
// variation.
func (p Params) DelaySens(vdd, vth float64) float64 {
	u := vdd - vth
	return p.delaySens(u, p.softPlus(u))
}

// delaySens is DelaySens given u = Vdd-Vth and s = S(u).
func (p Params) delaySens(u, s float64) float64 {
	if s <= 0 {
		return math.Inf(1)
	}
	return p.Alpha * p.softPlusSlope(u) / s
}

// delaySpread returns the relative critical-path-delay spread
// sigma_d / mu_d for a core at the given operating point.
func (p Params) delaySpread(vdd, vth float64) float64 {
	return p.DelaySens(vdd, vth) * p.SigmaVthPath
}

// PerrPerCycle returns the per-cycle probability of a variation-induced
// timing error for a core with threshold vth at supply vdd clocked at
// f GHz. The core's NPaths near-critical paths have Gaussian delay with
// mean 1/Freq(vdd,vth) and relative spread delaySpread; an error occurs
// when any path exceeds the clock period.
func (p Params) PerrPerCycle(f, vdd, vth float64) float64 {
	fmax := p.Freq(vdd, vth)
	if f <= 0 {
		return 0
	}
	if fmax <= 0 {
		return 1
	}
	mu := 1 / fmax
	sigma := p.delaySpread(vdd, vth) * mu
	if sigma <= 0 {
		if f > fmax {
			return 1
		}
		return 0
	}
	z := (1/f - mu) / sigma
	// P(all paths meet timing) = CDF(z)^NPaths; for the deep tail use
	// the union bound NPaths * Q(z), exact to first order.
	tail := mathx.StdNormalTail(z)
	n := float64(p.NPaths)
	if tail*n < 1e-6 {
		return tail * n
	}
	cdf := 1 - tail
	if cdf <= 0 {
		return 1
	}
	return 1 - math.Exp(n*math.Log(cdf))
}

// FreqAtPerr returns the highest frequency in GHz at which the core's
// per-cycle timing-error probability stays at or below perr. With
// perr at the error-free target (e.g. 1e-16) this is the safe
// frequency fNTV,Safe; larger perr values yield the speculative
// frequencies of Accordion's Speculative modes.
//
// It is Delay(vdd, vth).FreqAt(PerrQuantile(perr)): callers that price
// many cores at one error rate, or one core at many, solve each half
// once and combine them.
func (p Params) FreqAtPerr(vdd, vth, perr float64) float64 {
	return p.Delay(vdd, vth).FreqAt(p.PerrQuantile(perr))
}

// PathDelay is the critical-path delay distribution of a core at one
// operating point: each of its NPaths near-critical paths has Gaussian
// delay with mean Mu (ns, 1/Freq) and standard deviation Sigma. Mu is
// +Inf for a core that cannot switch (Freq <= 0).
type PathDelay struct {
	Mu, Sigma float64
}

// Delay returns the critical-path delay distribution at (vdd, vth). It
// evaluates the soft-plus term once for both the frequency and its Vth
// sensitivity; the result is bit-identical to mean 1/Freq(vdd, vth)
// and sigma delaySpread(vdd, vth) times the mean.
func (p Params) Delay(vdd, vth float64) PathDelay {
	if vdd <= 0 {
		return PathDelay{Mu: math.Inf(1)}
	}
	u := vdd - vth
	s := p.softPlus(u)
	fmax := p.freqK() * p.freqShape(vdd, s)
	if fmax <= 0 {
		return PathDelay{Mu: math.Inf(1)}
	}
	mu := 1 / fmax
	return PathDelay{Mu: mu, Sigma: p.delaySens(u, s) * p.SigmaVthPath * mu}
}

// FreqAt returns the frequency in GHz whose clock period is the delay
// z standard deviations above the mean, 1/(Mu + z*Sigma), or 0 for a
// core that cannot switch.
func (d PathDelay) FreqAt(z float64) float64 {
	if math.IsInf(d.Mu, 1) {
		return 0
	}
	return 1 / (d.Mu + z*d.Sigma)
}

// PerrQuantile returns the standard-normal quantile z at which a core's
// NPaths near-critical paths fail with per-cycle probability perr; the
// frequency at that error rate is PathDelay.FreqAt(z). It depends on
// the Params only through NPaths, not on the core or the supply.
func (p Params) PerrQuantile(perr float64) float64 {
	if perr >= 1 {
		// The delay distribution is unbounded; cap at the point where
		// half the cycles fail.
		perr = 0.5
	}
	n := float64(p.NPaths)
	if perr < 1e-6 {
		return mathx.StdNormalTailQuantile(perr / n)
	}
	// Solve 1 - CDF(z)^n = perr.
	return mathx.StdNormalTailQuantile(-math.Log1p(-perr) / n)
}

// ErrorFreePerr is the per-cycle error probability the paper treats as
// effectively error-free when deriving safe frequencies.
const ErrorFreePerr = 1e-16

// SafeFreq returns fNTV,Safe: the highest frequency excluding timing
// errors (per-cycle error probability at most ErrorFreePerr).
func (p Params) SafeFreq(vdd, vth float64) float64 {
	return p.FreqAtPerr(vdd, vth, ErrorFreePerr)
}

// BlockVddMIN returns the minimum supply voltage at which an SRAM block
// of nbits cells with block-average threshold shift dvth (vs nominal)
// stays functional. extraSigma is a per-block standard-normal draw
// capturing residual randomness of the weakest cell; pass 0 for the
// expected value.
func (p Params) BlockVddMIN(dvth float64, nbits int, extraSigma float64) float64 {
	if nbits <= 0 {
		return p.VcellNom
	}
	worst := math.Sqrt(2 * math.Log(float64(nbits)))
	// The fluctuation of the maximum of n Gaussians around its typical
	// value has scale sigma/worst (Gumbel limit).
	return p.VcellNom + p.BetaVth*dvth + p.SigmaCell*(worst+extraSigma/worst)
}

// Guardband returns the worst-case timing guardband in percent at
// supply vdd for a population with total threshold-voltage variation
// sigmaMu (sigma/mu). It is the frequency penalty of designing for a
// kSigma-slow threshold corner:
// (f(Vdd, VthNom) / f(Vdd, VthNom + kSigma*sigma) - 1) * 100.
func (p Params) Guardband(vdd, sigmaMu, kSigma float64) float64 {
	slow := p.VthNom * (1 + kSigma*sigmaMu)
	fn := p.Freq(vdd, p.VthNom)
	fs := p.Freq(vdd, slow)
	if fs <= 0 {
		return math.Inf(1)
	}
	return (fn/fs - 1) * 100
}
