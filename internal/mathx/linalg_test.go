package mathx

import (
	"math"
	"testing"
)

func TestCholeskyReconstructs(t *testing.T) {
	// A = B*B^T + n*I is symmetric positive definite for any B.
	g := NewRNG(11)
	n := 20
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = g.Normal(0, 1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if math.Abs(s-a.At(i, j)) > 1e-6*math.Abs(a.At(i, j))+1e-6 {
				t.Fatalf("LL^T mismatch at (%d,%d): %g vs %g", i, j, s, a.At(i, j))
			}
		}
	}
	// Strictly-upper part must be zero.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper triangle nonzero at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3 and -1
	if _, err := Cholesky(a); err == nil {
		t.Error("indefinite matrix accepted")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestLowerMulVecMatchesMulVec(t *testing.T) {
	g := NewRNG(12)
	n := 15
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, g.Normal(0, 1))
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = g.Normal(0, 1)
	}
	a := l.MulVec(v)
	b := append([]float64(nil), v...)
	l.LowerMulVecInPlace(b)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %g vs %g", i, a[i], b[i])
		}
	}
	// Computed in place bottom-up, each row must still equal a plain
	// top-down row sum bit for bit: the sampler's draws depend on it.
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			s += l.At(i, j) * v[j]
		}
		if math.Float64bits(s) != math.Float64bits(b[i]) {
			t.Fatalf("row %d: in place %v, row sum %v", i, b[i], s)
		}
	}
}

func TestGrid2DBilinear(t *testing.T) {
	grid := NewGrid2D(3, 3)
	// f(x, y) = x + 10y is reproduced exactly by bilinear interpolation.
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			grid.Set(x, y, float64(x)+10*float64(y))
		}
	}
	cases := []struct{ x, y, want float64 }{
		{0, 0, 0}, {2, 2, 22}, {0.5, 0, 0.5}, {1, 1.5, 16}, {1.25, 0.75, 8.75},
		{-1, -1, 0}, {5, 5, 22}, // clamped
	}
	for _, c := range cases {
		if got := grid.Bilinear(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Bilinear(%g,%g) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestGrid2DCloneIndependent(t *testing.T) {
	g := NewGrid2D(2, 2)
	g.Fill(1)
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) != 1 {
		t.Error("clone aliases parent")
	}
}
