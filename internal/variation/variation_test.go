package variation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestFieldParamsValidate(t *testing.T) {
	if err := DefaultVth().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultLeff().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FieldParams{
		{SigmaMu: 0, CorrRange: 0.1, SysFrac: 0.5},
		{SigmaMu: 0.9, CorrRange: 0.1, SysFrac: 0.5},
		{SigmaMu: 0.1, CorrRange: 0, SysFrac: 0.5},
		{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 1.5},
	}
	for i, fp := range bad {
		if err := fp.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSphericalCorrProperties(t *testing.T) {
	if SphericalCorr(0, 0.1) != 1 {
		t.Error("corr at 0 distance must be 1")
	}
	if SphericalCorr(0.1, 0.1) != 0 || SphericalCorr(5, 0.1) != 0 {
		t.Error("corr beyond range must be 0")
	}
	f := func(a, b float64) bool {
		r1 := math.Abs(math.Mod(a, 0.1))
		r2 := math.Abs(math.Mod(b, 0.1))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return SphericalCorr(r1, 0.1) >= SphericalCorr(r2, 0.1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomPoints(n int, rng *mathx.RNG) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func TestSampleMarginalStats(t *testing.T) {
	rng := mathx.NewRNG(101)
	pts := randomPoints(64, rng)
	s, err := NewSampler(pts, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	// Pool deviations across many chips; the marginal must be ~N(0, 0.15^2).
	var all []float64
	for chip := 0; chip < 400; chip++ {
		all = append(all, s.Sample(rng)...)
	}
	if m := mathx.Mean(all); math.Abs(m) > 0.01 {
		t.Errorf("mean deviation = %.4f, want ~0", m)
	}
	if sd := mathx.StdDev(all); math.Abs(sd-0.15) > 0.01 {
		t.Errorf("sigma = %.4f, want ~0.15", sd)
	}
}

func TestSpatialCorrelationStructure(t *testing.T) {
	// Two points much closer than the correlation range must correlate
	// at about SysFrac; two points beyond it must not correlate.
	rng := mathx.NewRNG(202)
	pts := []Point{{0.5, 0.5}, {0.505, 0.5}, {0.9, 0.9}}
	s, err := NewSampler(pts, FieldParams{SigmaMu: 0.15, CorrRange: 0.1, SysFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	n := 6000
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		d := s.Sample(rng)
		a[i], b[i], c[i] = d[0], d[1], d[2]
	}
	near := mathx.Pearson(a, b)
	far := mathx.Pearson(a, c)
	if near < 0.35 || near > 0.6 {
		t.Errorf("near-pair correlation = %.3f, want ~0.5 (SysFrac)", near)
	}
	if math.Abs(far) > 0.08 {
		t.Errorf("far-pair correlation = %.3f, want ~0", far)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	pts := randomPoints(20, mathx.NewRNG(1))
	s1, _ := NewSampler(pts, DefaultVth())
	s2, _ := NewSampler(pts, DefaultVth())
	d1 := s1.Sample(mathx.NewRNG(77))
	d2 := s2.Sample(mathx.NewRNG(77))
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("sampling is not reproducible")
		}
	}
}

func TestPureRandomField(t *testing.T) {
	// SysFrac 0 must work without a Cholesky factor and produce
	// uncorrelated deviations.
	rng := mathx.NewRNG(5)
	pts := []Point{{0.1, 0.1}, {0.1001, 0.1}}
	s, err := NewSampler(pts, FieldParams{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	n := 4000
	a, b := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		d := s.Sample(rng)
		a[i], b[i] = d[0], d[1]
	}
	if r := mathx.Pearson(a, b); math.Abs(r) > 0.06 {
		t.Errorf("random-only field correlates: r=%.3f", r)
	}
}

func TestPureSystematicField(t *testing.T) {
	// SysFrac 1: co-located points get identical deviations.
	rng := mathx.NewRNG(6)
	pts := []Point{{0.3, 0.3}, {0.3, 0.3}}
	s, err := NewSampler(pts, FieldParams{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Sample(rng)
	if math.Abs(d[0]-d[1]) > 1e-4 {
		t.Errorf("co-located systematic deviations differ: %g vs %g", d[0], d[1])
	}
}

func TestEmptyPointSetRejected(t *testing.T) {
	if _, err := NewSampler(nil, DefaultVth()); err == nil {
		t.Error("empty point set accepted")
	}
}

func TestSampleField(t *testing.T) {
	g, err := SampleField(16, 16, DefaultVth(), mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 16 || g.H != 16 {
		t.Fatalf("bad grid dims %dx%d", g.W, g.H)
	}
	min, max := mathx.MinMax(g.V)
	if min == max {
		t.Error("degenerate field")
	}
	if math.Abs(min) > 1 || math.Abs(max) > 1 {
		t.Errorf("implausible deviations: [%g, %g]", min, max)
	}
}

// The sampled systematic field must reproduce the analytic variogram
// gamma(r) = sigma_sys^2 (1 - rho(r)) + sigma_rand^2, the statistical
// contract VARIUS-NTV's geoR fields satisfy.
func TestEmpiricalVariogramMatchesModel(t *testing.T) {
	fp := FieldParams{SigmaMu: 0.15, CorrRange: 0.1, SysFrac: 0.5}
	// Point pairs at controlled separations.
	seps := []float64{0.01, 0.03, 0.05, 0.08, 0.15}
	var pts []Point
	for _, r := range seps {
		pts = append(pts, Point{0.2, 0.2}, Point{0.2 + r, 0.2})
	}
	s, err := NewSampler(pts, fp)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(31)
	n := 8000
	sq := make([]float64, len(seps))
	for k := 0; k < n; k++ {
		d := s.Sample(rng)
		for i := range seps {
			diff := d[2*i] - d[2*i+1]
			sq[i] += diff * diff
		}
	}
	sigma2 := fp.SigmaMu * fp.SigmaMu
	sysVar, rndVar := fp.SysFrac*sigma2, (1-fp.SysFrac)*sigma2
	for i, r := range seps {
		gammaEmp := sq[i] / float64(n) / 2
		gammaModel := sysVar*(1-SphericalCorr(r, fp.CorrRange)) + rndVar
		if gammaEmp < 0.8*gammaModel || gammaEmp > 1.2*gammaModel {
			t.Errorf("variogram at r=%.2f: empirical %.5f vs model %.5f", r, gammaEmp, gammaModel)
		}
	}
}

func TestExponentialCorrelogram(t *testing.T) {
	if ExponentialCorr(0, 0.1) != 1 {
		t.Error("corr at zero distance must be 1")
	}
	// ~5% at the range.
	if c := ExponentialCorr(0.1, 0.1); c < 0.03 || c > 0.08 {
		t.Errorf("corr at the range = %.3f, want ~0.05", c)
	}
	if Spherical.String() != "spherical" || Exponential.String() != "exponential" {
		t.Error("names wrong")
	}
	// The exponential family plugs into the sampler.
	fp := FieldParams{SigmaMu: 0.15, CorrRange: 0.1, SysFrac: 0.5, Corr: Exponential}
	pts := []Point{{0.5, 0.5}, {0.52, 0.5}, {0.9, 0.1}}
	s, err := NewSampler(pts, fp)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(77)
	nn := 4000
	a, b := make([]float64, nn), make([]float64, nn)
	for i := 0; i < nn; i++ {
		d := s.Sample(rng)
		a[i], b[i] = d[0], d[1]
	}
	// Near points correlate at ~SysFrac * rho(0.02) ~ 0.5*0.55.
	if r := mathx.Pearson(a, b); r < 0.15 || r > 0.45 {
		t.Errorf("exponential near-pair correlation %.3f out of band", r)
	}
}

// Historically SampleField errored above 4096 points; the circulant
// path lifted that cap (TestSampleFieldLiftsCap), so only degenerate
// dimensions are rejected now.
func TestSampleFieldRejectsBadDims(t *testing.T) {
	if _, err := SampleField(0, 4, DefaultVth(), mathx.NewRNG(1)); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := SampleField(4, -2, DefaultVth(), mathx.NewRNG(1)); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestSampleToReusesDirtyBuffer(t *testing.T) {
	pts := randomPoints(30, mathx.NewRNG(2))
	for _, fp := range []FieldParams{
		DefaultVth(),
		{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 0}, // no Cholesky factor
		{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 1}, // no random component
	} {
		s, err := NewSampler(pts, fp)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, s.N())
		for i := range dst {
			dst[i] = 1e3 // a previous draw's leftovers
		}
		want := s.Sample(mathx.NewRNG(77))
		s.SampleTo(dst, mathx.NewRNG(77))
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v point %d: SampleTo %v, Sample %v", fp, i, dst[i], want[i])
			}
		}
	}
}
