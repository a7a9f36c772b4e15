package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	c1 := g.Split(1)
	g2 := NewRNG(7)
	// Splitting must not depend on how many draws the parent made before
	// — it consumes exactly one parent draw per split.
	_ = g2
	x1 := make([]float64, 500)
	for i := range x1 {
		x1[i] = c1.Float64()
	}
	c2 := NewRNG(7).Split(2)
	x2 := make([]float64, 500)
	for i := range x2 {
		x2[i] = c2.Float64()
	}
	if r := Pearson(x1, x2); math.Abs(r) > 0.15 {
		t.Errorf("sibling streams correlate: r=%.3f", r)
	}
}

func TestRNGSplitStable(t *testing.T) {
	a := NewRNG(99).Split(5)
	b := NewRNG(99).Split(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split is not reproducible")
		}
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for id := int64(0); id < 1000; id++ {
		s := SplitSeed(123, id)
		if seen[s] {
			t.Fatalf("SplitSeed collision at id %d", id)
		}
		seen[s] = true
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = g.Normal(3, 2)
	}
	if m := Mean(xs); math.Abs(m-3) > 0.02 {
		t.Errorf("mean = %.4f, want ~3", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.02 {
		t.Errorf("stddev = %.4f, want ~2", s)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(2)
	f := func(seed int64) bool {
		v := g.Uniform(-1.5, 2.5)
		return v >= -1.5 && v < 2.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliRate(t *testing.T) {
	g := NewRNG(3)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %.4f", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(4)
	p := g.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(99)
	g.Float64() // leave the stream mid-way
	for _, seed := range []int64{0, 1, 2014, -7} {
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 700; i++ {
			if a, b := g.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
	// Split(id) is Reseed(SplitSeed(Int63(), id)).
	parent, shadow, child := NewRNG(5), NewRNG(5), NewRNG(0)
	for id := int64(1); id <= 3; id++ {
		split := parent.Split(id)
		child.Reseed(SplitSeed(shadow.Int63(), id))
		for i := 0; i < 10; i++ {
			if a, b := split.StdNormal(), child.StdNormal(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("id %d draw %d: Split %v, reseeded %v", id, i, a, b)
			}
		}
	}
}
