package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzBatchKernels is the differential fuzzer of the AVX2 leaves against
// the generic Go loops (the only kernels on platforms without AVX2). Each
// input runs SpMMBatchInto, MatMulBlocksInto and AddReLUInto twice, with
// useAVX2 on and off: float64 must match bit for bit, float32 must stay
// within f32KernelTol of the Σ|terms| scale of every output (the float32
// AVX2 projections fuse multiply-adds, so their last bits may differ).
//
// Inputs pick the room size n, the batch width K, the block width d (also
// the projection's din), the projection's dout, the edge density, the
// spacing of exact ±0 entries, and the value seed. Every fourth CSR row is
// empty. The checked-in corpus covers d ∈ {1,4,5,8,16} and K ∈ {1,16}.
func FuzzBatchKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, kRaw, dRaw, doutRaw, edgePct, zeroEvery uint8, seed int64) {
		if !useAVX2 {
			t.Skip("no AVX2 leaves on this CPU or platform")
		}
		n := int(nRaw)%40 + 1
		k := int(kRaw)%16 + 1
		d := int(dRaw)%16 + 1
		dout := int(doutRaw)%16 + 1
		rng := rand.New(rand.NewSource(seed))

		graphs := make([]*CSR, k)
		for b := range graphs {
			dense := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i%4 != 1 && i != j && rng.Intn(100) < int(edgePct)%101 {
						dense.Data[i*n+j] = 1
					}
				}
			}
			graphs[b] = CSRFromDense(dense)
			graphs[b].Val = nil // implicit ones, the only layout with AVX2 leaves
		}
		values := func(rows, cols int) *Matrix {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
				if z := int(zeroEvery); z > 0 && i%z == 0 {
					m.Data[i] = math.Copysign(0, float64(1-2*(i/z%2)))
				}
			}
			return m
		}
		x := values(n, k*d)
		w := values(d, dout)
		acc := values(n, k*d)

		checkF64 := func(name string, out func() []float64) {
			t.Helper()
			vec, scalar := withAVX2(true, out), withAVX2(false, out)
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("%s f64 n=%d k=%d d=%d dout=%d: [%d] AVX2 %v vs Go %v",
						name, n, k, d, dout, i, vec[i], scalar[i])
				}
			}
		}
		checkF32 := func(name string, scale []float64, out func() []float32) {
			t.Helper()
			vec, scalar := withAVX2(true, out), withAVX2(false, out)
			for i := range vec {
				if diff := math.Abs(float64(vec[i]) - float64(scalar[i])); diff > f32KernelTol*scale[i] {
					t.Fatalf("%s f32 n=%d k=%d d=%d dout=%d: [%d] AVX2 %v vs Go %v (diff %g, scale %g)",
						name, n, k, d, dout, i, vec[i], scalar[i], diff, scale[i])
				}
			}
		}

		checkF64("SpMMBatchInto", func() []float64 {
			dst := NewMatrix(n, k*d)
			SpMMBatchInto(dst, graphs, x)
			return dst.Data
		})
		checkF64("MatMulBlocksInto", func() []float64 {
			dst := NewMatrix(n, k*dout)
			MatMulBlocksInto(dst, x, w, k)
			return dst.Data
		})
		checkF64("AddReLUInto", func() []float64 {
			dst := acc.Clone()
			AddReLUInto(dst.Data, x.Data)
			return dst.Data
		})

		x32, w32, acc32 := As[float32](x), As[float32](w), As[float32](acc)
		abs := func(m *Matrix) *Matrix {
			out := m.Clone()
			for i, v := range out.Data {
				out.Data[i] = math.Abs(v)
			}
			return out
		}
		spmmScale := NewMatrix(n, k*d)
		SpMMBatchInto(spmmScale, graphs, abs(x))
		mmScale := NewMatrix(n, k*dout)
		MatMulBlocksInto(mmScale, abs(x), abs(w), k)
		reluScale := abs(acc)
		reluScale.AddInPlace(abs(x))
		checkF32("SpMMBatchInto", spmmScale.Data, func() []float32 {
			dst := NewDense[float32](n, k*d)
			SpMMBatchInto(dst, graphs, x32)
			return dst.Data
		})
		checkF32("MatMulBlocksInto", mmScale.Data, func() []float32 {
			dst := NewDense[float32](n, k*dout)
			MatMulBlocksInto(dst, x32, w32, k)
			return dst.Data
		})
		checkF32("AddReLUInto", reluScale.Data, func() []float32 {
			dst := acc32.Clone()
			AddReLUInto(dst.Data, x32.Data)
			return dst.Data
		})
	})
}

// f32KernelTol bounds a float32 kernel's deviation relative to the Σ|terms|
// of the output it computes: ≤16 single-precision roundings (one per
// multiply-add over din ≤ 16) stay two orders of magnitude inside it.
const f32KernelTol = 1e-5

// withAVX2 runs f with the AVX2 dispatch forced to on, restoring it after.
// Callers must only force it on where the CPU has AVX2.
func withAVX2[R any](on bool, f func() R) R {
	prev := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = prev }()
	return f()
}
