// Package power performs chip-level power accounting in the role McPAT
// played for the paper: it prices an engaged set of cores (plus the
// cluster memories and network slice they activate) at an operating
// point, checks the PMAX budget, and derives the STV baseline core
// count NSTV — the maximum number of cores that fit the budget at the
// super-threshold nominal voltage.
package power

import (
	"fmt"
	"math"

	"repro/internal/chip"
)

// Model prices operating points on one chip sample.
type Model struct {
	Chip *chip.Chip

	// ClusterMemLeakFactor scales a core's static power to one cluster
	// memory block's leakage (a 2 MB SRAM bank leaks a few core-
	// equivalents' worth of subthreshold current).
	ClusterMemLeakFactor float64
	// NetworkFracDyn is the network + cluster-bus energy as a fraction
	// of the engaged cores' dynamic power.
	NetworkFracDyn float64

	// Thermal coupling for EngagedThermal: die temperature is
	// TAmbient + RthPerW * total power, and leakage rises with it.
	TAmbient float64 // C
	RthPerW  float64 // C per W
}

// NewModel returns a Model with the default McPAT-flavoured overhead
// coefficients. The thermal defaults are calibrated so that running at
// the full PMAX budget heats the die to the leakage-calibration
// temperature (Table 2's TMIN = 80 C over a 45 C ambient).
func NewModel(ch *chip.Chip) *Model {
	return &Model{
		Chip:                 ch,
		ClusterMemLeakFactor: 0.6,
		NetworkFracDyn:       0.10,
		TAmbient:             45,
		RthPerW:              0.35,
	}
}

// Validate reports the first implausible coefficient, or nil.
func (m *Model) Validate() error {
	if m.Chip == nil {
		return fmt.Errorf("power: nil chip")
	}
	if m.ClusterMemLeakFactor < 0 || m.NetworkFracDyn < 0 {
		return fmt.Errorf("power: negative overhead coefficients")
	}
	return nil
}

// Breakdown itemizes the power of an operating point in Watts.
type Breakdown struct {
	CoreDynamic float64
	CoreStatic  float64
	Memory      float64
	Network     float64
}

// Total returns the summed power in Watts.
func (b Breakdown) Total() float64 {
	return b.CoreDynamic + b.CoreStatic + b.Memory + b.Network
}

// Engaged prices running the given cores at supply vdd and common
// frequency f GHz. Clusters containing no engaged core are power-gated
// and contribute nothing; each active cluster pays its memory leakage.
func (m *Model) Engaged(cores []int, vdd, f float64) Breakdown {
	var words [4]uint64
	e := m.engage(words[:], vdd, f)
	for _, i := range cores {
		e.add(i)
	}
	return e.breakdown()
}

// engagement prices an engaged set core by core. Its sums run in the
// order cores are added, so a prefix grown one core at a time prices
// bit-identically to Engaged on that prefix.
type engagement struct {
	m              *Model
	vdd            float64
	coreDyn        float64 // one core's dynamic power at (vdd, f)
	memLeak        float64 // one active cluster memory's leakage
	b              Breakdown
	active         []uint64 // bitset of clusters with an engaged core
	activeClusters int
}

// engage starts an empty engagement at (vdd, f). words is the caller's
// scratch for the cluster bitset; a larger one is allocated only for
// chips with more clusters than it covers.
func (m *Model) engage(words []uint64, vdd, f float64) engagement {
	tp := m.Chip.Cfg.Tech
	if n := (m.Chip.Cfg.Clusters + 63) / 64; n > len(words) {
		words = make([]uint64, n)
	}
	return engagement{
		m:       m,
		vdd:     vdd,
		coreDyn: tp.DynPower(vdd, f),
		memLeak: tp.StaticPower(vdd, tp.VthNom) * m.ClusterMemLeakFactor,
		active:  words,
	}
}

// add engages core i.
func (e *engagement) add(i int) {
	e.b.CoreDynamic += e.coreDyn
	e.b.CoreStatic += e.m.Chip.CoreStaticPower(i, e.vdd)
	c := e.m.Chip.Cores[i].Cluster
	if bit := uint64(1) << (c % 64); e.active[c/64]&bit == 0 {
		e.active[c/64] |= bit
		e.activeClusters++
	}
}

// breakdown prices the cores engaged so far. Clusters containing no
// engaged core are power-gated; each active cluster pays its memory
// leakage.
func (e *engagement) breakdown() Breakdown {
	b := e.b
	b.Memory = float64(e.activeClusters) * e.memLeak
	b.Network = b.CoreDynamic * e.m.NetworkFracDyn
	return b
}

// EngagedThermal prices the operating point with leakage-temperature
// coupling: die temperature follows the dissipated power, leakage
// follows the temperature, and the fixed point of the loop is returned
// together with the converged temperature in C. Engaged itself prices
// at the calibration temperature (Table 2's TMIN).
func (m *Model) EngagedThermal(cores []int, vdd, f float64) (Breakdown, float64) {
	base := m.Engaged(cores, vdd, f)
	tp := m.Chip.Cfg.Tech
	temp := tp.TNom
	b := base
	for i := 0; i < 8; i++ {
		scale := math.Exp(tp.LeakTempCoeff * (temp - tp.TNom))
		b = base
		b.CoreStatic *= scale
		b.Memory *= scale
		next := m.TAmbient + m.RthPerW*b.Total()
		if math.Abs(next-temp) < 1e-6 {
			temp = next
			break
		}
		temp = next
	}
	return b, temp
}

// Budget returns the chip's power budget PMAX in Watts.
func (m *Model) Budget() float64 { return m.Chip.Cfg.PowerBudget }

// WithinBudget reports whether the operating point fits PMAX.
func (m *Model) WithinBudget(cores []int, vdd, f float64) bool {
	return m.Engaged(cores, vdd, f).Total() <= m.Budget()+1e-9
}

// STVBaseline characterizes the paper's super-threshold reference
// operating point.
type STVBaseline struct {
	N     int     // NSTV: cores engaged
	Cores []int   // which cores
	Vdd   float64 // STV nominal supply
	Freq  float64 // GHz, nominal STV frequency (variation neglected, §6.3)
	Power float64 // W
}

// Baseline computes the STV reference: the maximum N such that the N
// most efficient cores running at the STV nominal voltage and nominal
// frequency fit PMAX. Following Section 6.3, STV operation neglects
// variation, so all cores run at the nominal fSTV.
func (m *Model) Baseline() STVBaseline {
	tp := m.Chip.Cfg.Tech
	vdd := tp.VddNomSTV
	f := tp.FSTV()
	all := m.Chip.SelectCores(len(m.Chip.Cores), vdd, chip.SelectEfficient)
	// Grow the prefix one core at a time: each step prices exactly
	// what Engaged(all[:n+1]) would, with running sums instead of a
	// from-scratch re-pricing per prefix.
	var words [4]uint64
	e := m.engage(words[:], vdd, f)
	fits := e.breakdown()
	n := 0
	for n < len(all) {
		e.add(all[n])
		b := e.breakdown()
		if !(b.Total() <= m.Budget()+1e-9) {
			break
		}
		fits = b
		n++
	}
	return STVBaseline{
		N:     n,
		Cores: all[:n],
		Vdd:   vdd,
		Freq:  f,
		Power: fits.Total(),
	}
}

// MaxCoresAt returns the largest prefix of the selection order that
// fits the budget at (vdd, f); it is the power-limited core count the
// paper's Expand mode runs into.
func (m *Model) MaxCoresAt(vdd, f float64, policy chip.SelectPolicy) int {
	all := m.Chip.SelectCores(len(m.Chip.Cores), vdd, policy)
	lo, hi := 0, len(all)
	// Power grows monotonically with the engaged prefix; binary search.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.WithinBudget(all[:mid], vdd, f) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
