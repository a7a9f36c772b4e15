package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// ErrNotPositiveDefinite reports a Cholesky factorization failure.
var ErrNotPositiveDefinite = errors.New("mathx: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L*L^T = m for a
// symmetric positive-definite m. A tiny jitter is added to the diagonal
// to absorb rounding when the matrix is only semi-definite (as exact
// correlation matrices of co-located points are).
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mathx: Cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	const jitter = 1e-10
	for j := 0; j < n; j++ {
		d := m.At(j, j) + jitter
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		sj := math.Sqrt(d)
		l.Set(j, j, sj)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/sj)
		}
	}
	return l, nil
}

// MulVec returns m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, r := range row {
			s += r * v[j]
		}
		out[i] = s
	}
	return out
}

// LowerMulVecInPlace overwrites v (length Rows) with L*v, L the lower
// triangle of m, exploiting its structure (roughly half MulVec's work)
// without allocating. Rows are computed bottom-up, so row i still reads
// the unmodified v[0..i].
func (m *Matrix) LowerMulVecInPlace(v []float64) {
	for i := m.Rows - 1; i >= 0; i-- {
		row := m.Data[i*m.Cols : i*m.Cols+i+1]
		s := 0.0
		for j, r := range row {
			s += r * v[j]
		}
		v[i] = s
	}
}

// Grid2D is a dense scalar field over a regular W x H lattice. It backs
// the thermal solver, image kernels, and variation maps.
type Grid2D struct {
	W, H int
	V    []float64
}

// NewGrid2D allocates a zeroed W x H grid.
func NewGrid2D(w, h int) *Grid2D {
	return &Grid2D{W: w, H: h, V: make([]float64, w*h)}
}

// At returns the value at column x, row y.
func (g *Grid2D) At(x, y int) float64 { return g.V[y*g.W+x] }

// Set assigns the value at column x, row y.
func (g *Grid2D) Set(x, y int, v float64) { g.V[y*g.W+x] = v }

// Clone returns a deep copy of the grid.
func (g *Grid2D) Clone() *Grid2D {
	c := NewGrid2D(g.W, g.H)
	copy(c.V, g.V)
	return c
}

// Fill assigns v to every cell.
func (g *Grid2D) Fill(v float64) {
	for i := range g.V {
		g.V[i] = v
	}
}

// Bilinear samples the grid at fractional coordinates (x, y) measured in
// cell units, clamping to the boundary.
func (g *Grid2D) Bilinear(x, y float64) float64 {
	x = Clamp(x, 0, float64(g.W-1))
	y = Clamp(y, 0, float64(g.H-1))
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= g.W {
		x1 = g.W - 1
	}
	if y1 >= g.H {
		y1 = g.H - 1
	}
	tx, ty := x-float64(x0), y-float64(y0)
	top := Lerp(g.At(x0, y0), g.At(x1, y0), tx)
	bot := Lerp(g.At(x0, y1), g.At(x1, y1), tx)
	return Lerp(top, bot, ty)
}
