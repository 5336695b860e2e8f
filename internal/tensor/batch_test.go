package tensor

import (
	"math"
	"math/rand"
	"testing"

	"after/internal/parallel"
)

// randomPattern builds a random n×n implicit-ones CSR with edge probability p.
func randomPattern(rng *rand.Rand, n int, p float64) *CSR {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				m.Data[i*n+j] = 1
			}
		}
	}
	c := CSRFromDense(m)
	c.Val = nil // implicit ones, like the occlusion adjacency
	return c
}

func randomDense(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestSpMMBatchIntoMatchesPerBlock pins the batched kernel to SpMMInto
// column block by column block, bit-identically, across sizes and batch
// widths including K=1 and a shared-graph (wide-RHS) batch.
func TestSpMMBatchIntoMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, k, d int }{
		{1, 1, 1}, {5, 1, 4}, {12, 3, 4}, {40, 16, 8}, {33, 7, 5},
	} {
		graphs := make([]*CSR, tc.k)
		shared := randomPattern(rng, tc.n, 0.2)
		for b := range graphs {
			if b%2 == 0 {
				graphs[b] = randomPattern(rng, tc.n, 0.15)
			} else {
				graphs[b] = shared // exercise aliased graphs in one batch
			}
		}
		x := randomDense(rng, tc.n, tc.k*tc.d)
		dst := NewMatrix(tc.n, tc.k*tc.d)
		SpMMBatchInto(dst, graphs, x)
		for b := 0; b < tc.k; b++ {
			xb := NewMatrix(tc.n, tc.d)
			for i := 0; i < tc.n; i++ {
				copy(xb.Data[i*tc.d:(i+1)*tc.d], x.Data[i*x.Cols+b*tc.d:i*x.Cols+(b+1)*tc.d])
			}
			want := SpMM(graphs[b], xb)
			for i := 0; i < tc.n; i++ {
				for j := 0; j < tc.d; j++ {
					got := dst.Data[i*dst.Cols+b*tc.d+j]
					if got != want.Data[i*tc.d+j] {
						t.Fatalf("n=%d k=%d d=%d block %d (%d,%d): batched %v vs SpMM %v",
							tc.n, tc.k, tc.d, b, i, j, got, want.Data[i*tc.d+j])
					}
				}
			}
		}
	}
}

// TestMatMulBlocksIntoMatchesPerBlock pins the blocked dense projection to
// MatMulInto per column block, bit-identically.
func TestMatMulBlocksIntoMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ n, k, din, dout int }{
		{1, 1, 1, 1}, {6, 1, 4, 8}, {17, 5, 16, 8}, {50, 16, 8, 1},
	} {
		w := randomDense(rng, tc.din, tc.dout)
		x := randomDense(rng, tc.n, tc.k*tc.din)
		// Sprinkle exact zeros so the mv==0 skip path is exercised.
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = 0
		}
		dst := NewMatrix(tc.n, tc.k*tc.dout)
		MatMulBlocksInto(dst, x, w, tc.k)
		for b := 0; b < tc.k; b++ {
			xb := NewMatrix(tc.n, tc.din)
			for i := 0; i < tc.n; i++ {
				copy(xb.Data[i*tc.din:(i+1)*tc.din], x.Data[i*x.Cols+b*tc.din:i*x.Cols+(b+1)*tc.din])
			}
			want := MatMul(xb, w)
			for i := 0; i < tc.n; i++ {
				for j := 0; j < tc.dout; j++ {
					got := dst.Data[i*dst.Cols+b*tc.dout+j]
					if got != want.Data[i*tc.dout+j] {
						t.Fatalf("n=%d k=%d block %d (%d,%d): blocked %v vs MatMul %v",
							tc.n, tc.k, b, i, j, got, want.Data[i*tc.dout+j])
					}
				}
			}
		}
	}
}

// TestBatchKernelsWorkerInvariant: the row-parallel split must not change a
// single bit of the result (disjoint contiguous row blocks).
func TestBatchKernelsWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k, d := 300, 16, 8 // big enough to clear the parallel cutoffs
	graphs := make([]*CSR, k)
	for b := range graphs {
		graphs[b] = randomPattern(rng, n, 0.1)
	}
	x := randomDense(rng, n, k*d)
	w := randomDense(rng, d, d)
	run := func() (*Matrix, *Matrix) {
		sp := NewMatrix(n, k*d)
		SpMMBatchInto(sp, graphs, x)
		mm := NewMatrix(n, k*d)
		MatMulBlocksInto(mm, x, w, k)
		return sp, mm
	}
	var sp1, mm1, sp8, mm8 *Matrix
	parallel.WithLimit(1, func() { sp1, mm1 = run() })
	parallel.WithLimit(8, func() { sp8, mm8 = run() })
	for i := range sp1.Data {
		if sp1.Data[i] != sp8.Data[i] {
			t.Fatalf("SpMMBatchInto workers=1 vs 8 differ at %d: %v vs %v", i, sp1.Data[i], sp8.Data[i])
		}
	}
	for i := range mm1.Data {
		if mm1.Data[i] != mm8.Data[i] {
			t.Fatalf("MatMulBlocksInto workers=1 vs 8 differ at %d: %v vs %v", i, mm1.Data[i], mm8.Data[i])
		}
	}
}

// TestFloat32KernelsNearFloat64: the f32 kernels agree with the f64 oracles
// to single-precision relative error. These are small reductions (≤ a few
// hundred terms), so 1e-4 relative against the magnitude scale is generous
// yet would still catch any indexing or accumulation bug.
func TestFloat32KernelsNearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, k, d := 80, 8, 8
	graphs := make([]*CSR, k)
	for b := range graphs {
		graphs[b] = randomPattern(rng, n, 0.15)
	}
	x := randomDense(rng, n, k*d)
	w := randomDense(rng, d, d)
	x32 := As[float32](x)
	w32 := As[float32](w)

	sp := NewMatrix(n, k*d)
	SpMMBatchInto(sp, graphs, x)
	sp32 := NewDense[float32](n, k*d)
	SpMMBatchInto(sp32, graphs, x32)
	mm := NewMatrix(n, k*d)
	MatMulBlocksInto(mm, x, w, k)
	mm32 := NewDense[float32](n, k*d)
	MatMulBlocksInto(mm32, x32, w32, k)

	check := func(name string, f64 []float64, f32 []float32) {
		scale := 1.0
		for _, v := range f64 {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range f64 {
			if diff := math.Abs(f64[i] - float64(f32[i])); diff > 1e-4*scale {
				t.Fatalf("%s: f32 diverges at %d: %v vs %v (diff %v, scale %v)",
					name, i, f32[i], f64[i], diff, scale)
			}
		}
	}
	check("SpMMBatch", sp.Data, sp32.Data)
	check("MatMulBlocks", mm.Data, mm32.Data)
}

// TestBatchKernelShapePanics: malformed shapes must fail loudly.
func TestBatchKernelShapePanics(t *testing.T) {
	g := randomPattern(rand.New(rand.NewSource(1)), 4, 0.5)
	x := NewMatrix(4, 6)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("uneven blocks", func() { SpMMBatchInto(NewMatrix(4, 6), []*CSR{g, g, g, g}, x) })
	mustPanic("bad dst", func() { SpMMBatchInto(NewMatrix(3, 6), []*CSR{g, g}, x) })
	mustPanic("bad graph", func() { SpMMBatchInto(NewMatrix(5, 6), []*CSR{g, g}, NewMatrix(5, 6)) })
	mustPanic("bad width", func() { MatMulBlocksInto(NewMatrix(4, 6), x, NewMatrix(4, 3), 2) })
}
