// Package tensor implements the numerical substrate of the POSHGNN
// reproduction: dense row-major matrices, a reverse-mode
// automatic-differentiation engine over the float64 ones, and the batched
// inference kernels, written once for float64 and float32.
//
// The networks in the paper are tiny (hidden dimension 8, two to three
// layers, at most a few hundred nodes per room), so dense CPU matrices
// reproduce training faithfully without any external framework.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Float is the element type of a Dense matrix: float64 for training and
// exact inference, float32 for the serving fast path.
type Float interface{ float32 | float64 }

// Dense is a dense row-major matrix of T values.
type Dense[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is a dense row-major matrix of float64 values, the type of every
// autodiff value and model weight.
type Matrix = Dense[float64]

// NewDense allocates a zero rows×cols matrix. It panics on non-positive
// dimensions, which always indicates a programming error in this codebase.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewMatrix allocates a zero rows×cols float64 matrix.
func NewMatrix(rows, cols int) *Matrix { return NewDense[float64](rows, cols) }

// As returns m at precision T: m itself for float64, otherwise a copy with
// every element rounded once.
func As[T Float](m *Matrix) *Dense[T] {
	if d, ok := any(m).(*Dense[T]); ok {
		return d
	}
	out := NewDense[T](m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = T(v)
	}
	return out
}

// FromSlice builds a rows×cols matrix backed by a copy of data, which must
// have exactly rows*cols elements in row-major order.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// FromColumn builds a len(v)×1 column vector from v.
func FromColumn(v []float64) *Matrix { return FromSlice(len(v), 1, v) }

// Ones returns a rows×cols matrix filled with 1.
func Ones(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Randn fills a rows×cols matrix with values drawn from N(0, std²) using rng.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform fills a rows×cols matrix with the Glorot/Xavier uniform
// initialization used by the paper's GNN layers.
func GlorotUniform(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set writes v at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense[T]) Clone() *Dense[T] {
	c := NewDense[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SameShape reports whether m and n have identical dimensions.
func (m *Dense[T]) SameShape(n *Dense[T]) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

func (m *Dense[T]) assertSameShape(n *Dense[T], op string) {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// AddInPlace adds n to m element-wise.
func (m *Dense[T]) AddInPlace(n *Dense[T]) {
	m.assertSameShape(n, "AddInPlace")
	for i, v := range n.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies every element of m by s.
func (m *Dense[T]) ScaleInPlace(s T) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Zero resets every element of m to 0.
func (m *Dense[T]) Zero() { clear(m.Data) }

// MatMul returns m·n. Dimensions must agree (m.Cols == n.Rows).
func MatMul(m, n *Matrix) *Matrix {
	out := NewMatrix(m.Rows, n.Cols)
	MatMulInto(out, m, n)
	return out
}

// MatMulInto computes m·n into dst (which must be m.Rows×n.Cols and is
// zeroed first) — the allocation-free MatMul for scratch-buffer callers.
func MatMulInto(dst, m, n *Matrix) {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, m.Rows, n.Cols))
	}
	dst.Zero()
	// ikj loop order keeps the inner loop sequential over both n and dst.
	for i := 0; i < m.Rows; i++ {
		mRow := m.Data[i*m.Cols : (i+1)*m.Cols]
		outRow := dst.Data[i*n.Cols : (i+1)*n.Cols]
		for k, mv := range mRow {
			if mv == 0 {
				continue
			}
			nRow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, nv := range nRow {
				outRow[j] += float64(mv * nv) // unfused, like MatMulBlocksInto
			}
		}
	}
}

// Transposed returns a new matrix that is the transpose of m.
func (m *Dense[T]) Transposed() *Dense[T] {
	t := NewDense[T](m.Cols, m.Rows)
	m.TransposedInto(t)
	return t
}

// TransposedInto writes the transpose of m into dst (m.Cols×m.Rows).
func (m *Dense[T]) TransposedInto(dst *Dense[T]) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposedInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
}

// AddMat returns m + n as a new matrix.
func AddMat(m, n *Matrix) *Matrix {
	m.assertSameShape(n, "AddMat")
	out := m.Clone()
	out.AddInPlace(n)
	return out
}

// SubMat returns m - n as a new matrix.
func SubMat(m, n *Matrix) *Matrix {
	m.assertSameShape(n, "SubMat")
	out := m.Clone()
	for i, v := range n.Data {
		out.Data[i] -= v
	}
	return out
}

// HadamardMat returns the element-wise product m ⊗ n as a new matrix.
func HadamardMat(m, n *Matrix) *Matrix {
	m.assertSameShape(n, "HadamardMat")
	out := m.Clone()
	for i, v := range n.Data {
		out.Data[i] *= v
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value, used for gradient
// clipping and NaN guards.
func (m *Dense[T]) MaxAbs() T {
	var mx T
	for _, v := range m.Data {
		if a := T(math.Abs(float64(v))); a > mx {
			mx = a
		}
	}
	return mx
}

// HasNaN reports whether any element is NaN or infinite.
func (m *Dense[T]) HasNaN() bool {
	for _, v := range m.Data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// Col returns a copy of column j as a plain slice.
func (m *Dense[T]) Col(j int) []T {
	out := make([]T, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Row returns a copy of row i as a plain slice.
func (m *Dense[T]) Row(i int) []T {
	out := make([]T, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// ConcatCols returns [a ‖ b ‖ …]: matrices stacked side by side. All inputs
// must share the same row count.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("tensor: ConcatCols needs at least one matrix")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := NewMatrix(rows, cols)
	off := 0
	for _, m := range ms {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*cols+off:i*cols+off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
		}
		off += m.Cols
	}
	return out
}

// String renders small matrices for debugging.
func (m *Dense[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
