// Package variation models within-die parametric process variation in
// the style of VARIUS-NTV: each transistor parameter (threshold voltage
// Vth, effective channel length Leff) deviates from its design value by
// the sum of a spatially-correlated systematic component and an
// uncorrelated random component.
//
// The systematic component is a Gaussian random field with a spherical
// correlation structure of range phi (expressed as a fraction of the
// chip width), the same structure VARIUS obtains from geoR. Fields are
// sampled exactly at the set of layout points of interest (core and
// memory-block centers) via a Cholesky factorization of the covariance
// matrix, so no gridding or interpolation error enters.
//
// Everything is deterministic given a seed, and a single factorization
// is reused across the Monte-Carlo chip population. Factorizations are
// additionally memoized process-wide per (point set, field parameters)
// — see NewSampler — so concurrent chip factories and SampleField calls
// share one O(n³) Cholesky instead of each refactorizing the same
// covariance.
//
// Two sampling paths exist, selected by grid size:
//
//   - Dense Cholesky (Sampler): exact at ANY point layout, O(n³) setup
//     and O(n²) per draw. SampleField keeps this path for grids up to
//     ExactSampleCap points (4096, a 128 MB factor and tens of seconds
//     of factorization already), both because it is the historical
//     bit-exact path and because small dense draws beat the FFT's
//     constant factor.
//   - FFT circulant embedding (CirculantSampler): regular grids only.
//     The stationary covariance is embedded on a padded periodic
//     torus, diagonalized by one 2-D FFT, and each realization costs
//     one more FFT — O(n log n) per draw, O(n) memory, no size cap.
//     With the padding past the correlation range the spherical
//     correlogram's embedding is exact, so the two paths agree in
//     distribution (pinned by the statistical-equivalence tests).
//
// SampleField applies the selection rule automatically: dense at or
// below ExactSampleCap points (bit-identical to all historical
// output), circulant above. Callers that want the O(n log n) path on a
// small grid construct a CirculantSampler directly.
package variation

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Point is a location on the die in normalized coordinates: the chip
// spans [0,1] x [0,1].
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q in normalized chip units.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Correlogram selects the spatial correlation family of the systematic
// component.
type Correlogram int

// Correlogram families.
const (
	// Spherical is VARIUS's choice: exactly zero correlation beyond the
	// range phi.
	Spherical Correlogram = iota
	// Exponential decays as exp(-3r/phi), reaching ~5% at the range —
	// an alternative fit some process data prefers.
	Exponential
)

// String names the correlogram.
func (c Correlogram) String() string {
	if c == Exponential {
		return "exponential"
	}
	return "spherical"
}

// FieldParams configures one parameter's variation field.
type FieldParams struct {
	SigmaMu   float64 // total sigma/mu of the parameter (e.g. 0.15 for Vth)
	CorrRange float64 // phi: correlation range as a fraction of chip width
	SysFrac   float64 // fraction of total variance that is systematic (spatially correlated)
	// Corr selects the correlation family (default Spherical, as in
	// VARIUS).
	Corr Correlogram
}

// DefaultVth returns the paper's Table 2 Vth variation:
// total sigma/mu = 15%, phi = 0.1, variance split evenly between
// systematic and random components (the customary VARIUS split).
func DefaultVth() FieldParams {
	return FieldParams{SigmaMu: 0.15, CorrRange: 0.1, SysFrac: 0.5}
}

// DefaultLeff returns the paper's Table 2 Leff variation:
// total sigma/mu = 7.5%, phi = 0.1, even systematic/random split.
func DefaultLeff() FieldParams {
	return FieldParams{SigmaMu: 0.075, CorrRange: 0.1, SysFrac: 0.5}
}

// Validate reports the first implausible parameter, or nil.
func (fp FieldParams) Validate() error {
	switch {
	case fp.SigmaMu <= 0 || fp.SigmaMu > 0.5:
		return fmt.Errorf("variation: sigma/mu %.3f outside (0, 0.5]", fp.SigmaMu)
	case fp.CorrRange <= 0 || fp.CorrRange > 2:
		return fmt.Errorf("variation: correlation range %.3f outside (0, 2]", fp.CorrRange)
	case fp.SysFrac < 0 || fp.SysFrac > 1:
		return fmt.Errorf("variation: systematic fraction %.3f outside [0, 1]", fp.SysFrac)
	}
	return nil
}

// SphericalCorr returns the spherical correlogram at distance r for
// range phi: 1 - 1.5(r/phi) + 0.5(r/phi)^3 within the range, 0 beyond.
func SphericalCorr(r, phi float64) float64 {
	if r <= 0 {
		return 1
	}
	if r >= phi {
		return 0
	}
	x := r / phi
	return 1 - 1.5*x + 0.5*x*x*x
}

// ExponentialCorr returns the exponential correlogram exp(-3r/phi),
// whose practical range (5% correlation) is phi.
func ExponentialCorr(r, phi float64) float64 {
	if r <= 0 {
		return 1
	}
	return math.Exp(-3 * r / phi)
}

// corr dispatches on the configured family.
func (fp FieldParams) corr(r float64) float64 {
	if fp.Corr == Exponential {
		return ExponentialCorr(r, fp.CorrRange)
	}
	return SphericalCorr(r, fp.CorrRange)
}

// Sampler draws correlated relative deviations at a fixed set of layout
// points. Construct once per (point set, field) pair and reuse for the
// whole chip population.
type Sampler struct {
	params   FieldParams
	n        int
	chol     *mathx.Matrix // factor of the systematic covariance
	sigmaSys float64
	sigmaRnd float64
}

// cholCache memoizes covariance factors per exact (field parameters,
// point set) key. The factor is immutable after construction (Sample
// only multiplies by it), so samplers share cached entries freely
// across goroutines. Entries above cholCachePoints points are computed
// but not retained: a dense 2048-point factor is already 32 MB, and the
// repository's hot sets (chip layouts) are an order of magnitude
// smaller.
var cholCache = parallel.Cache[string, *mathx.Matrix]{Name: "variation.Cholesky"}

const cholCachePoints = 2048

// cholKey encodes the exact bit patterns of the field parameters and
// every coordinate, so distinct inputs can never collide.
func cholKey(pts []Point, fp FieldParams) string {
	buf := make([]byte, 0, 8*(2*len(pts)+4))
	put := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	put(fp.SigmaMu)
	put(fp.CorrRange)
	put(fp.SysFrac)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fp.Corr))
	for _, p := range pts {
		put(p.X)
		put(p.Y)
	}
	return string(buf)
}

// factorize builds the systematic covariance for the point set and
// Cholesky-factorizes it.
func factorize(pts []Point, fp FieldParams, sigmaSys float64) (*mathx.Matrix, error) {
	n := len(pts)
	cov := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			c := sigmaSys * sigmaSys * fp.corr(pts[i].Dist(pts[j]))
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	chol, err := mathx.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("variation: covariance factorization: %w", err)
	}
	return chol, nil
}

// NewSampler factorizes the systematic covariance for the point set.
// Factors are memoized process-wide: concurrent calls with the same
// point set and parameters share one factorization (singleflight), so
// a Monte-Carlo population costs one O(n³) factorization total.
func NewSampler(pts []Point, fp FieldParams) (*Sampler, error) {
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("variation: empty point set")
	}
	n := len(pts)
	sigmaSys := fp.SigmaMu * math.Sqrt(fp.SysFrac)
	sigmaRnd := fp.SigmaMu * math.Sqrt(1-fp.SysFrac)

	var chol *mathx.Matrix
	if sigmaSys > 0 {
		var err error
		if n <= cholCachePoints {
			chol, err = cholCache.Do(cholKey(pts, fp), func() (*mathx.Matrix, error) {
				return factorize(pts, fp, sigmaSys)
			})
		} else {
			chol, err = factorize(pts, fp, sigmaSys)
		}
		if err != nil {
			return nil, err
		}
	}
	return &Sampler{params: fp, n: n, chol: chol, sigmaSys: sigmaSys, sigmaRnd: sigmaRnd}, nil
}

// ResetFactorizationCache empties the process-wide factor cache; it
// exists for benchmarks that need to measure cold-cache behavior.
func ResetFactorizationCache() { cholCache.Reset() }

// N returns the number of layout points.
func (s *Sampler) N() int { return s.n }

// Params returns the field parameters the sampler was built with.
func (s *Sampler) Params() FieldParams { return s.params }

// Sample draws one chip's relative deviations: element i is the
// fractional deviation of the parameter at point i, so the actual
// parameter value is nominal * (1 + dev[i]).
func (s *Sampler) Sample(rng *mathx.RNG) []float64 {
	dev := make([]float64, s.n)
	s.SampleTo(dev, rng)
	return dev
}

// SampleTo draws one chip's relative deviations into dst (length N)
// without allocating: the standard-normal draws are written into dst
// and multiplied by the Cholesky factor in place. It consumes rng
// exactly as Sample does and yields bit-identical deviations.
func (s *Sampler) SampleTo(dst []float64, rng *mathx.RNG) {
	if len(dst) != s.n {
		panic("variation: SampleTo buffer length mismatch")
	}
	timer := telemetry.StartTimer()
	if s.chol != nil {
		for i := range dst {
			dst[i] = rng.StdNormal()
		}
		s.chol.LowerMulVecInPlace(dst)
	} else {
		clear(dst)
	}
	if s.sigmaRnd > 0 {
		for i := range dst {
			dst[i] += s.sigmaRnd * rng.StdNormal()
		}
	}
	timer.ObserveIn(telSampleNs)
}

// ExactSampleCap is the largest point count SampleField hands to the
// dense-Cholesky exact sampler; larger grids go through the FFT
// circulant path (package doc). The dense factor at this size is
// already 128 MB and tens of seconds of O(n³) work.
const ExactSampleCap = 4096

// SampleField renders one systematic+random field realization on a
// w x h grid covering the whole die; useful for visualization, for
// fine-grid per-core atlases, and for statistical validation of the
// correlation structure.
//
// Path selection (package doc): grids of at most ExactSampleCap points
// use the dense-Cholesky exact sampler — bit-identical to this
// function's historical output — while larger grids use the FFT
// circulant-embedding sampler, whose draws are O(n log n) and whose
// distribution matches the dense path. Both paths memoize their
// expensive precomputation process-wide (the Cholesky factor and the
// torus eigen-decomposition respectively), so repeated calls on the
// same grid and parameters refactorize nothing; dense grids above the
// factor cache's retention threshold still pay one factorization per
// call, so prefer a reused Sampler or CirculantSampler for repeated
// large draws.
func SampleField(w, h int, fp FieldParams, rng *mathx.RNG) (*mathx.Grid2D, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("variation: field dimensions must be positive")
	}
	if w*h > ExactSampleCap {
		s, err := NewCirculantSampler(w, h, fp)
		if err != nil {
			return nil, err
		}
		g := s.SampleGrid(rng)
		emitFieldSampled(w, h, "circulant")
		return g, nil
	}
	pts := make([]Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, Point{
				X: (float64(x) + 0.5) / float64(w),
				Y: (float64(y) + 0.5) / float64(h),
			})
		}
	}
	s, err := NewSampler(pts, fp)
	if err != nil {
		return nil, err
	}
	dev := s.Sample(rng)
	g := mathx.NewGrid2D(w, h)
	copy(g.V, dev)
	emitFieldSampled(w, h, "dense")
	return g, nil
}
