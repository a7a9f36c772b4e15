// Package chip assembles the technology and variation models into the
// hypothetical NTV manycore of the paper's Table 2: 288 cores in 36
// clusters of 8 on a ~20x20 mm 11nm die, with 64 KB core-private
// memories and a 2 MB memory block per cluster.
//
// A Chip is one variation-afflicted sample: every core carries its own
// threshold-voltage and channel-length deviations, every memory block
// its own minimum operating voltage VddMIN. From those the chip derives
// per-core maximum/safe/speculative frequencies, per-cluster VddMIN,
// and the chip-wide near-threshold operating voltage VddNTV (the
// maximum per-cluster VddMIN, exactly as in Section 6.1).
package chip

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/converge"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/trace"
	"repro/internal/variation"
)

// Factory telemetry: how many Monte-Carlo chips have been drawn and how
// long one draw takes (two correlated-field samples plus the voltage
// derivation; the factory's Cholesky cost is paid once at NewFactory).
var (
	telChipsDrawn = telemetry.GetCounter("chip.factory.chips_drawn")
	telDrawNs     = telemetry.GetHistogram("chip.factory.draw_ns")
)

// Config describes the chip organization and its variation environment.
type Config struct {
	Tech     tech.Params
	Vth      variation.FieldParams
	Leff     variation.FieldParams
	Clusters int // total clusters (36)
	CoresPer int // cores per cluster (8)

	CoreMemBits    int // bits per core-private memory block (64 KB)
	ClusterMemBits int // bits per cluster memory block (2 MB)

	PowerBudget float64 // W, chip power budget PMAX (100)
}

// DefaultConfig returns the paper's Table 2 system configuration.
func DefaultConfig() Config {
	return Config{
		Tech:           tech.Default11nm(),
		Vth:            variation.DefaultVth(),
		Leff:           variation.DefaultLeff(),
		Clusters:       36,
		CoresPer:       8,
		CoreMemBits:    64 * 1024 * 8,
		ClusterMemBits: 2 * 1024 * 1024 * 8,
		PowerBudget:    100,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.Vth.Validate(); err != nil {
		return err
	}
	if err := c.Leff.Validate(); err != nil {
		return err
	}
	switch {
	case c.Clusters <= 0 || c.CoresPer <= 0:
		return fmt.Errorf("chip: need positive cluster and core counts")
	case c.CoreMemBits <= 0 || c.ClusterMemBits <= 0:
		return fmt.Errorf("chip: need positive memory sizes")
	case c.PowerBudget <= 0:
		return fmt.Errorf("chip: need a positive power budget")
	}
	gridSide := int(math.Round(math.Sqrt(float64(c.Clusters))))
	if gridSide*gridSide != c.Clusters {
		return fmt.Errorf("chip: cluster count %d is not a perfect square", c.Clusters)
	}
	return nil
}

// NumCores returns the total core count.
func (c Config) NumCores() int { return c.Clusters * c.CoresPer }

// Core is one variation-afflicted core.
type Core struct {
	ID      int
	Cluster int
	Pos     variation.Point
	VthDev  float64 // fractional Vth deviation
	LeffDev float64 // fractional Leff deviation
}

// Vth returns the core's actual threshold voltage under tech params tp.
func (co Core) Vth(tp tech.Params) float64 { return tp.VthNom * (1 + co.VthDev) }

// BlockKind distinguishes the two memory block types.
type BlockKind int

// Memory block kinds.
const (
	CoreMem BlockKind = iota
	ClusterMem
)

// MemBlock is one SRAM block with its minimum operating voltage.
type MemBlock struct {
	Kind    BlockKind
	Cluster int
	Core    int // owning core for CoreMem blocks, -1 for ClusterMem
	VthDev  float64
	VddMIN  float64
}

// Chip is a single variation-afflicted sample of the manycore.
type Chip struct {
	Cfg    Config
	Seed   int64
	Cores  []Core
	Blocks []MemBlock

	clusterVddMIN []float64
	vddNTV        float64
}

// layout returns the sampling points: for each cluster, CoresPer core
// points (shared by the core and its private memory, which abuts it)
// followed by one cluster-memory point, laid out on a uniform grid.
func layout(cfg Config) (corePts, clusterMemPts []variation.Point) {
	side := int(math.Round(math.Sqrt(float64(cfg.Clusters))))
	coreSide := int(math.Ceil(math.Sqrt(float64(cfg.CoresPer))))
	tile := 1.0 / float64(side)
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			ox, oy := float64(cx)*tile, float64(cy)*tile
			for k := 0; k < cfg.CoresPer; k++ {
				gx, gy := k%coreSide, k/coreSide
				corePts = append(corePts, variation.Point{
					X: ox + (float64(gx)+0.5)/float64(coreSide)*tile*0.8,
					Y: oy + (float64(gy)+0.5)/float64(coreSide)*tile*0.8,
				})
			}
			clusterMemPts = append(clusterMemPts, variation.Point{
				X: ox + 0.9*tile,
				Y: oy + 0.5*tile,
			})
		}
	}
	return corePts, clusterMemPts
}

// Factory generates a population of chips sharing one covariance
// factorization; building it is the expensive step.
type Factory struct {
	cfg        Config
	vthSampler *variation.Sampler
	lefSampler *variation.Sampler
	corePts    []variation.Point
	nCore      int

	draws sync.Pool // of *drawState, the scratch of one draw
}

// drawState is one draw's reusable scratch: the generator every
// sub-stream is reseeded into, and the two deviation vectors.
type drawState struct {
	rng       *mathx.RNG
	vth, leff []float64
}

// NewFactory validates cfg and prepares the variation samplers.
func NewFactory(cfg Config) (*Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corePts, memPts := layout(cfg)
	all := append(append([]variation.Point{}, corePts...), memPts...)
	vs, err := variation.NewSampler(all, cfg.Vth)
	if err != nil {
		return nil, err
	}
	ls, err := variation.NewSampler(corePts, cfg.Leff)
	if err != nil {
		return nil, err
	}
	return &Factory{cfg: cfg, vthSampler: vs, lefSampler: ls, corePts: corePts, nCore: len(corePts)}, nil
}

// Config returns the factory's configuration.
func (f *Factory) Config() Config { return f.cfg }

// Sample draws one chip. The same seed always yields the same chip.
func (f *Factory) Sample(seed int64) *Chip { return f.SampleInto(new(Chip), seed) }

// SampleInto draws the chip Sample(seed) would into dst, reusing dst's
// slices, and returns dst. dst may hold an earlier draw of any factory;
// nothing may still be using it. Monte-Carlo loops recycle one chip per
// worker this way instead of allocating ~27 KB per draw.
func (f *Factory) SampleInto(dst *Chip, seed int64) *Chip {
	timer := telemetry.StartTimer()
	cfg := f.cfg
	st, _ := f.draws.Get().(*drawState)
	if st == nil {
		st = &drawState{
			rng:  mathx.NewRNG(0), // reseeded per sub-stream below
			vth:  make([]float64, f.vthSampler.N()),
			leff: make([]float64, f.lefSampler.N()),
		}
	}
	defer f.draws.Put(st)
	// The parent stream hands each sub-stream (Vth field, Leff field,
	// block draws) a seed split off its next value, as rng.Split(1..3)
	// would; one pooled generator is reseeded for each in turn.
	rng := st.rng
	rng.Reseed(seed)
	vthSeed, leffSeed, blockSeed := rng.Int63(), rng.Int63(), rng.Int63()
	rng.Reseed(mathx.SplitSeed(vthSeed, 1))
	f.vthSampler.SampleTo(st.vth, rng)
	rng.Reseed(mathx.SplitSeed(leffSeed, 2))
	f.lefSampler.SampleTo(st.leff, rng)
	rng.Reseed(mathx.SplitSeed(blockSeed, 3))
	vthDev, leffDev, blockRng := st.vth, st.leff, rng

	corePts := f.corePts
	ch := dst
	*ch = Chip{
		Cfg:           cfg,
		Seed:          seed,
		Cores:         slices.Grow(dst.Cores[:0], f.nCore)[:f.nCore],
		Blocks:        slices.Grow(dst.Blocks[:0], f.nCore+cfg.Clusters)[:f.nCore+cfg.Clusters],
		clusterVddMIN: dst.clusterVddMIN,
	}
	for i := range ch.Cores {
		ch.Cores[i] = Core{
			ID:      i,
			Cluster: i / cfg.CoresPer,
			Pos:     corePts[i],
			VthDev:  vthDev[i],
			LeffDev: leffDev[i],
		}
	}
	// Memory blocks: a private block co-located with each core, plus a
	// cluster block at each cluster-memory point.
	for i := 0; i < f.nCore; i++ {
		dv := vthDev[i] * cfg.Tech.VthNom
		ch.Blocks[i] = MemBlock{
			Kind:    CoreMem,
			Cluster: i / cfg.CoresPer,
			Core:    i,
			VthDev:  vthDev[i],
			VddMIN:  cfg.Tech.BlockVddMIN(dv, cfg.CoreMemBits, blockRng.StdNormal()),
		}
	}
	for c := 0; c < cfg.Clusters; c++ {
		dev := vthDev[f.nCore+c]
		dv := dev * cfg.Tech.VthNom
		ch.Blocks[f.nCore+c] = MemBlock{
			Kind:    ClusterMem,
			Cluster: c,
			Core:    -1,
			VthDev:  dev,
			VddMIN:  cfg.Tech.BlockVddMIN(dv, cfg.ClusterMemBits, blockRng.StdNormal()),
		}
	}
	ch.deriveVoltages()
	telChipsDrawn.Inc()
	events.New("chip.drawn").
		Int("seed", seed).
		Int("cores", int64(len(ch.Cores))).
		Float("vddntv", ch.vddNTV).
		Emit()
	timer.ObserveIn(telDrawNs)
	return ch
}

// SampleCtx is Sample under the observability tier: while tracing is
// enabled it records a chip.draw span (a child of ctx's current span,
// so population draws nest under their pool worker), and while
// convergence monitoring is enabled it streams the drawn chip's
// summary metrics into the Monte-Carlo convergence estimators. The
// chip returned is bit-identical to Sample(seed) regardless.
func (f *Factory) SampleCtx(ctx context.Context, seed int64) *Chip {
	return f.SampleIntoCtx(ctx, new(Chip), seed)
}

// SampleIntoCtx is SampleInto under the observability tier of
// SampleCtx.
func (f *Factory) SampleIntoCtx(ctx context.Context, dst *Chip, seed int64) *Chip {
	sp := trace.StartFrom(ctx, "chip.draw").Arg("seed", seed)
	ch := f.SampleInto(dst, seed)
	sp.End()
	ch.ObserveConvergence()
	return ch
}

// Population draws n chips with seeds derived from seed. The draws fan
// out across parallel.Workers() goroutines; chip i's seed depends only
// on (seed, i), so the population is bit-identical to a sequential
// draw regardless of the worker count.
func (f *Factory) Population(seed int64, n int) []*Chip {
	chips, _ := f.PopulationCtx(context.Background(), seed, n)
	return chips
}

// PopulationCtx is Population with cancellation: it returns early with
// the context's error if ctx is cancelled mid-draw. Each draw goes
// through SampleCtx, so a traced run shows one chip.draw span per chip
// under the pool worker that drew it, and an enabled convergence
// monitor sees every chip of the population.
func (f *Factory) PopulationCtx(ctx context.Context, seed int64, n int) ([]*Chip, error) {
	return parallel.MapCtx(ctx, n, func(wctx context.Context, i int) (*Chip, error) {
		return f.SampleCtx(wctx, mathx.SplitSeed(seed, int64(i))), nil
	})
}

// New is a convenience constructor for a single chip.
func New(cfg Config, seed int64) (*Chip, error) {
	f, err := NewFactory(cfg)
	if err != nil {
		return nil, err
	}
	return f.Sample(seed), nil
}

func (ch *Chip) deriveVoltages() {
	ch.clusterVddMIN = slices.Grow(ch.clusterVddMIN[:0], ch.Cfg.Clusters)[:ch.Cfg.Clusters]
	clear(ch.clusterVddMIN)
	for _, b := range ch.Blocks {
		if b.VddMIN > ch.clusterVddMIN[b.Cluster] {
			ch.clusterVddMIN[b.Cluster] = b.VddMIN
		}
	}
	ch.vddNTV = 0
	for _, v := range ch.clusterVddMIN {
		if v > ch.vddNTV {
			ch.vddNTV = v
		}
	}
}

// ClusterVddMIN returns the minimum functional voltage of cluster c:
// the maximum VddMIN across the memory blocks it contains.
func (ch *Chip) ClusterVddMIN(c int) float64 { return ch.clusterVddMIN[c] }

// ClusterVddMINs returns a copy of all per-cluster VddMIN values.
func (ch *Chip) ClusterVddMINs() []float64 {
	out := make([]float64, len(ch.clusterVddMIN))
	copy(out, ch.clusterVddMIN)
	return out
}

// VddNTV returns the chip-wide near-threshold operating voltage: the
// maximum per-cluster VddMIN, so every memory block stays functional.
func (ch *Chip) VddNTV() float64 { return ch.vddNTV }

// CoreFmax returns core i's variation-afflicted maximum frequency in
// GHz at supply vdd: the technology frequency at the core's actual
// threshold, scaled by its channel-length deviation (longer channels
// are slower).
func (ch *Chip) CoreFmax(i int, vdd float64) float64 {
	co := ch.Cores[i]
	return ch.Cfg.Tech.Freq(vdd, co.Vth(ch.Cfg.Tech)) / (1 + co.LeffDev)
}

// CoreSafeFreq returns core i's highest error-free frequency at vdd.
func (ch *Chip) CoreSafeFreq(i int, vdd float64) float64 {
	co := ch.Cores[i]
	return ch.Cfg.Tech.SafeFreq(vdd, co.Vth(ch.Cfg.Tech)) / (1 + co.LeffDev)
}

// CoreFreqAtPerr returns the highest frequency at which core i's
// per-cycle timing-error probability stays at or below perr.
func (ch *Chip) CoreFreqAtPerr(i int, vdd, perr float64) float64 {
	co := ch.Cores[i]
	return ch.Cfg.Tech.FreqAtPerr(vdd, co.Vth(ch.Cfg.Tech), perr) / (1 + co.LeffDev)
}

// CoreDelay is core i's critical-path delay distribution at one supply
// together with its channel-length slow-down. It splits
// CoreFreqAtPerr into a per-core half and a per-error-rate half (the
// quantile tech.Params.PerrQuantile solves by Newton iteration), so a
// caller pricing many cores at a few error rates solves each quantile
// once: CoreFreqAtPerr(i, vdd, perr) is bit-identical to
// CoreDelay(i, vdd).FreqAt(Cfg.Tech.PerrQuantile(perr)).
type CoreDelay struct {
	tech.PathDelay
	Slow float64 // 1 + LeffDev: longer channels are slower
}

// FreqAt returns the core's frequency at error-rate quantile z.
func (d CoreDelay) FreqAt(z float64) float64 { return d.PathDelay.FreqAt(z) / d.Slow }

// CoreDelay returns core i's delay distribution at supply vdd.
func (ch *Chip) CoreDelay(i int, vdd float64) CoreDelay {
	co := ch.Cores[i]
	return CoreDelay{ch.Cfg.Tech.Delay(vdd, co.Vth(ch.Cfg.Tech)), 1 + co.LeffDev}
}

// CorePerr returns core i's per-cycle timing error probability when
// clocked at f GHz under supply vdd.
func (ch *Chip) CorePerr(i int, vdd, f float64) float64 {
	co := ch.Cores[i]
	// Leff slows the core: its paths see an effectively higher clock.
	return ch.Cfg.Tech.PerrPerCycle(f*(1+co.LeffDev), vdd, co.Vth(ch.Cfg.Tech))
}

// Leakage damping: a core's maximum frequency is set by its slowest
// critical path (an extreme value of the local Vth distribution), but
// its leakage is the average over millions of transistors, so the
// core-to-core leakage spread is much milder than the fmax spread.
const (
	leakVthDamp   = 0.3
	leakLeffCoeff = 1.0
)

// CoreStaticPower returns core i's leakage power in W at supply vdd,
// with the damped dependence on the local Vth and Leff deviations.
func (ch *Chip) CoreStaticPower(i int, vdd float64) float64 {
	co := ch.Cores[i]
	vthLeak := ch.Cfg.Tech.VthNom * (1 + leakVthDamp*co.VthDev)
	return ch.Cfg.Tech.StaticPower(vdd, vthLeak) * math.Exp(-leakLeffCoeff*co.LeffDev)
}

// CorePower returns core i's power in W at supply vdd and frequency f,
// including its leakage dependence on the local Vth and Leff.
func (ch *Chip) CorePower(i int, vdd, f float64) float64 {
	return ch.Cfg.Tech.DynPower(vdd, f) + ch.CoreStaticPower(i, vdd)
}

// ClusterSlowestCore returns the index of the slowest core of cluster c
// at supply vdd (the core that dictates the cluster's f domain).
func (ch *Chip) ClusterSlowestCore(c int, vdd float64) int {
	lo, hi := c*ch.Cfg.CoresPer, (c+1)*ch.Cfg.CoresPer
	best, bestF := lo, math.Inf(1)
	for i := lo; i < hi; i++ {
		if f := ch.CoreFmax(i, vdd); f < bestF {
			best, bestF = i, f
		}
	}
	return best
}

// ClusterCores returns the core index range [lo, hi) of cluster c.
func (ch *Chip) ClusterCores(c int) (lo, hi int) {
	return c * ch.Cfg.CoresPer, (c + 1) * ch.Cfg.CoresPer
}

// SelectPolicy chooses which cores engage in computation.
type SelectPolicy int

// Core-selection policies.
const (
	// SelectEfficient picks the cores with the best safe-frequency per
	// Watt, the paper's default ("we pick the most energy-efficient
	// NNTV cores").
	SelectEfficient SelectPolicy = iota
	// SelectFastest picks the cores with the highest safe frequency.
	SelectFastest
	// SelectSequential picks cores in layout order, a variation-blind
	// baseline.
	SelectSequential
)

// String names the policy.
func (p SelectPolicy) String() string {
	switch p {
	case SelectEfficient:
		return "efficient"
	case SelectFastest:
		return "fastest"
	case SelectSequential:
		return "sequential"
	}
	return fmt.Sprintf("SelectPolicy(%d)", int(p))
}

// SelectCores returns the IDs of n cores chosen under the policy at
// supply vdd, ordered best-first. It returns fewer than n only if the
// chip has fewer cores.
func (ch *Chip) SelectCores(n int, vdd float64, policy SelectPolicy) []int {
	if n > len(ch.Cores) {
		n = len(ch.Cores)
	}
	ids := make([]int, len(ch.Cores))
	for i := range ids {
		ids[i] = i
	}
	// Both ranking policies key on each core's safe frequency; solve its
	// error-rate quantile once rather than once per core (or per
	// comparison).
	zSafe := ch.Cfg.Tech.PerrQuantile(tech.ErrorFreePerr)
	switch policy {
	case SelectFastest:
		safe := make([]float64, len(ch.Cores))
		for i := range safe {
			safe[i] = ch.CoreDelay(i, vdd).FreqAt(zSafe)
		}
		sort.Slice(ids, func(a, b int) bool { return safe[ids[a]] > safe[ids[b]] })
	case SelectEfficient:
		// Greedy per-core performance-per-Watt at the core's own safe
		// frequency, the paper's "most energy-efficient NNTV cores".
		// Note the set-level coupling this greedy ignores: the slowest
		// engaged core caps the whole set's frequency, so at voltages
		// well above VddNTV (where frequency spreads compress and
		// leakage differences dominate the metric) the ordering can
		// pull slow, cool cores forward and cost set frequency.
		eff := make([]float64, len(ch.Cores))
		for i := range eff {
			f := ch.CoreDelay(i, vdd).FreqAt(zSafe)
			p := ch.CorePower(i, vdd, f)
			if p > 0 {
				eff[i] = f / p
			}
		}
		sort.Slice(ids, func(a, b int) bool { return eff[ids[a]] > eff[ids[b]] })
	case SelectSequential:
		// keep layout order
	}
	return ids[:n]
}

// SetFreq returns the frequency at which a set of engaged cores can run
// together: the minimum over the set of each core's frequency at the
// target per-cycle error probability (ErrorFreePerr for safe
// operation). Accordion runs all engaged cores at one f (Section 4).
func (ch *Chip) SetFreq(cores []int, vdd, perr float64) float64 {
	f := math.Inf(1)
	for _, i := range cores {
		if fi := ch.CoreFreqAtPerr(i, vdd, perr); fi < f {
			f = fi
		}
	}
	if math.IsInf(f, 1) {
		return 0
	}
	return f
}

// Summary bundles the chip-level metrics the Monte-Carlo convergence
// monitor tracks per drawn chip, all evaluated at the chip's own
// VddNTV: the fastest core's fmax, the operating voltage itself, the
// whole-chip power with every core at its safe frequency, and the mean
// per-cycle timing-error probability when every core is clocked at the
// population-relevant median core fmax.
type Summary struct {
	FmaxGHz float64 // fastest core's maximum frequency at VddNTV
	VddMINV float64 // chip-wide VddNTV (max per-cluster VddMIN)
	PowerW  float64 // sum of per-core power at each core's safe frequency
	ErrRate float64 // mean CorePerr at the median core's fmax
}

// SummaryMetrics computes the chip's Summary. It walks every core
// three times; callers on hot paths should gate it (ObserveConvergence
// does).
func (ch *Chip) SummaryMetrics() Summary {
	vdd := ch.VddNTV()
	n := len(ch.Cores)
	fmaxes := make([]float64, n)
	s := Summary{VddMINV: vdd}
	for i := 0; i < n; i++ {
		fmaxes[i] = ch.CoreFmax(i, vdd)
		if fmaxes[i] > s.FmaxGHz {
			s.FmaxGHz = fmaxes[i]
		}
		s.PowerW += ch.CorePower(i, vdd, ch.CoreSafeFreq(i, vdd))
	}
	sort.Float64s(fmaxes)
	median := fmaxes[n/2]
	for i := 0; i < n; i++ {
		s.ErrRate += ch.CorePerr(i, vdd, median)
	}
	s.ErrRate /= float64(n)
	return s
}

// ObserveConvergence streams the chip's Summary into the Monte-Carlo
// convergence monitor. While monitoring is disabled (the default) this
// is four atomic loads and no metric derivation.
func (ch *Chip) ObserveConvergence() {
	if !converge.On() {
		return
	}
	s := ch.SummaryMetrics()
	converge.Observe("chip.fmax_ghz", "GHz", s.FmaxGHz)
	converge.Observe("chip.vddmin_v", "V", s.VddMINV)
	converge.Observe("chip.power_w", "W", s.PowerW)
	converge.Observe("chip.err_rate", "p/cycle", s.ErrRate)
}
