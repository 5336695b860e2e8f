package tensor

import (
	"fmt"

	"after/internal/parallel"
)

// Batched (multi-target) kernels: the wide-RHS variants of SpMMInto and
// MatMulInto behind `core.BatchSession`, written once for float64 and
// float32. K targets of one room are stacked
// target-major into a single N×(K·d) matrix — column block k holds target
// k's d feature columns — so one kernel invocation carries the whole batch
// and the weight matrix streams through the cache once instead of K times.
//
// Occlusion graphs are per-target (arcs are cast from the target's eye), so
// the batched SpMM applies a distinct CSR to each column block; passing the
// same *CSR for every block degenerates to the classic shared-graph wide-RHS
// SpMM. Per column block the accumulation order is exactly SpMMInto's /
// MatMulInto's, which is what makes the float64 batched forward pass
// bit-identical to the autodiff one (pinned in internal/core's batch
// property tests).
//
// Precision only shows at the leaves: the typed AVX2 kernels (see
// avx2Kernels) and the product roundings. Every multiply that feeds an add
// is written T(a*b): the explicit conversion forbids the compiler from
// fusing the pair into an FMA (which arm64, ppc64 and s390x do by default),
// so the float64 instantiation keeps the scalar rounding sequence on every
// platform.

// SpMMBatchInto computes, for each block b, graphs[b]·x[:, b·d:(b+1)·d] into
// the same column block of dst, where d = x.Cols/len(graphs). Every graph
// must be square with x.Rows rows. dst is fully overwritten. Rows are
// processed in contiguous blocks over the worker pool when the total
// multiply-add work clears spmmParallelCutoff; each block owns disjoint dst
// rows, so the result is bit-identical for every worker count. The CSR
// values stay float64 (adjacencies are implicit-ones patterns, so a float32
// batch loses nothing on the graph side).
func SpMMBatchInto[T Float](dst *Dense[T], graphs []*CSR, x *Dense[T]) {
	nb := len(graphs)
	if nb == 0 || x.Cols%nb != 0 {
		panic(fmt.Sprintf("tensor: SpMMBatchInto %d blocks over %d columns", nb, x.Cols))
	}
	d := x.Cols / nb
	work := 0
	for _, g := range graphs {
		if g.Rows != x.Rows || g.Cols != x.Rows {
			panic(fmt.Sprintf("tensor: SpMMBatchInto graph %dx%d for %d-row batch", g.Rows, g.Cols, x.Rows))
		}
		work += g.NNZ() * d
	}
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: SpMMBatchInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	var ones spmmOnesKernel[T]
	if vk := avx2For[T](); vk != nil {
		ones = vk.spmmOnes(d)
	}
	// Block-outer, row-inner: processing one graph's column block across all
	// rows before moving to the next keeps that block's gathered x rows (a
	// ~d·8·rows byte footprint) cache-resident, where a row-outer loop cycles
	// the entire wide matrix once per row. Blocks write disjoint dst columns
	// and each output element still accumulates its neighbors in ascending
	// order, so the interchange is invisible in the bits.
	rowRange := func(lo, hi int) {
		for b, g := range graphs {
			off := b * d
			if g.Val == nil {
				// Implicit-ones adjacency — the occlusion hot path. The width
				// specializations accumulate each output column in register,
				// in the same ascending-neighbor order as the generic loop,
				// so results stay bit-identical; they also write (not add
				// into) the output, making a zero pass redundant. On CPUs
				// with AVX2 the vector kernels take over — still one
				// ascending-order accumulator chain per column, so still
				// bit-identical (see batch_asm_amd64.go).
				if ones != nil {
					ones(dst.Data[lo*x.Cols+off:], g.RowPtr[lo:hi+1], g.Col, x.Data, hi-lo, x.Cols, off)
					continue
				}
				for i := lo; i < hi; i++ {
					ob, cols := dst.Data[i*x.Cols+off:], g.Col[g.RowPtr[i]:g.RowPtr[i+1]]
					switch d {
					case 1:
						var acc T
						for _, c := range cols {
							acc += x.Data[int(c)*x.Cols+off]
						}
						ob[0] = acc
					case 4:
						spmmRowOnes4(ob, cols, x.Data, x.Cols, off)
					case 8:
						spmmRowOnes8(ob, cols, x.Data, x.Cols, off)
					case 16:
						spmmRowOnes16(ob, cols, x.Data, x.Cols, off)
					default:
						ob = ob[:d]
						clear(ob)
						for _, c := range cols {
							for j, xv := range x.Data[int(c)*x.Cols+off:][:d] {
								ob[j] += xv
							}
						}
					}
				}
				continue
			}
			for i := lo; i < hi; i++ {
				ob := dst.Data[i*x.Cols+off:][:d]
				clear(ob)
				for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
					v := T(g.at(k))
					if v == 0 {
						continue
					}
					xb := x.Data[int(g.Col[k])*x.Cols+off:][:d]
					if v == 1 {
						for j, xv := range xb {
							ob[j] += xv
						}
						continue
					}
					for j, xv := range xb {
						ob[j] += T(v * xv)
					}
				}
			}
		}
	}
	rowBlocks(x.Rows, work >= spmmParallelCutoff, rowRange)
}

// rowBlocks runs rowRange over [0, rows), split into one contiguous block
// per worker when wide is set and the pool has more than one worker.
func rowBlocks(rows int, wide bool, rowRange func(lo, hi int)) {
	workers := parallel.Limit()
	if !wide || workers <= 1 || rows <= 1 {
		rowRange(0, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	blocks := (rows + chunk - 1) / chunk
	parallel.ForEachN(blocks, workers, func(b int) {
		rowRange(b*chunk, min(b*chunk+chunk, rows))
	})
}

// matMulBlocksParallelCutoff is the multiply-add count above which
// MatMulBlocksInto fans rows out over the worker pool. Same rationale as
// spmmParallelCutoff: the POSHGNN projections are tiny (din, dout ≤ 16), so
// only genuinely wide batches on big rooms clear it.
const matMulBlocksParallelCutoff = 1 << 18

// MatMulBlocksInto applies one shared weight matrix w (din×dout) to every
// column block of the target-major batch x (rows×(K·din)), writing the
// rows×(K·dout) result into dst. Per block this replicates MatMulInto's ikj
// loop order — including the mv==0 row skip — so each column block of the
// result is bit-identical to MatMulInto on that block alone.
func MatMulBlocksInto[T Float](dst, x, w *Dense[T], blocks int) {
	din, dout := w.Rows, w.Cols
	if blocks <= 0 || x.Cols != blocks*din {
		panic(fmt.Sprintf("tensor: MatMulBlocksInto %d blocks of %d over %d columns", blocks, din, x.Cols))
	}
	if dst.Rows != x.Rows || dst.Cols != blocks*dout {
		panic(fmt.Sprintf("tensor: MatMulBlocksInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, x.Rows, blocks*dout))
	}
	// The float64 AVX2 dout=8 kernel multiplies and adds with the scalar
	// path's per-column rounding and order (no FMA), so it stays
	// bit-identical; the float64 dout=1 head keeps the scalar kernel — its
	// single accumulator chain cannot vectorize without reassociating, and in
	// float64 the order is contractual. The float32 kernels fuse (see
	// avx2Kernels).
	var vec matMulKernel[T]
	if vk := avx2For[T](); vk != nil {
		switch {
		case dout == 8:
			vec = vk.matMul8
		case dout == 1 && din%8 == 0:
			vec = vk.matMulHead
		}
	}
	rowRange := func(lo, hi int) {
		if vec != nil {
			if hi > lo {
				vec(dst.Data[lo*dst.Cols:], x.Data[lo*x.Cols:], w.Data, hi-lo, blocks, din, x.Cols, dst.Cols)
			}
			return
		}
		for i := lo; i < hi; i++ {
			xRow := x.Data[i*x.Cols : (i+1)*x.Cols]
			outRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			switch dout {
			// Register-accumulator specializations for the POSHGNN widths
			// (hidden=8 and the scalar heads). Accumulation runs in the same
			// ascending-k order with the same mv==0 skip as the generic loop,
			// so outputs are bit-identical; keeping the partial sums out of
			// memory roughly doubles throughput.
			case 8:
				for b := 0; b < blocks; b++ {
					matMulRow8(outRow[b*8:(b+1)*8], xRow[b*din:(b+1)*din], w.Data)
				}
			case 1:
				for b := 0; b < blocks; b++ {
					outRow[b] = matMulRow1(xRow[b*din:(b+1)*din], w.Data)
				}
			default:
				clear(outRow)
				for b := 0; b < blocks; b++ {
					xb := xRow[b*din : (b+1)*din]
					ob := outRow[b*dout : (b+1)*dout]
					for k, mv := range xb {
						if mv == 0 {
							continue
						}
						for j, wv := range w.Data[k*dout : (k+1)*dout] {
							ob[j] += T(mv * wv)
						}
					}
				}
			}
		}
	}
	rowBlocks(x.Rows, x.Rows*x.Cols*dout >= matMulBlocksParallelCutoff, rowRange)
}

// spmmRowOnes4/8/16 accumulate Σ_{c∈cols} x[c, off:off+d] into ob for an
// implicit-ones CSR row, holding every partial sum in a register. stride is
// x's row stride (total batch width). Neighbor order — and therefore
// floating-point accumulation order — matches the generic loop exactly.
func spmmRowOnes4[T Float](ob []T, cols []int32, x []T, stride, off int) {
	var a0, a1, a2, a3 T
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:4:4]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
}

func spmmRowOnes8[T Float](ob []T, cols []int32, x []T, stride, off int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 T
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:8:8]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
		a4 += xb[4]
		a5 += xb[5]
		a6 += xb[6]
		a7 += xb[7]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
}

func spmmRowOnes16[T Float](ob []T, cols []int32, x []T, stride, off int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 T
	var a8, a9, a10, a11, a12, a13, a14, a15 T
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:16:16]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
		a4 += xb[4]
		a5 += xb[5]
		a6 += xb[6]
		a7 += xb[7]
		a8 += xb[8]
		a9 += xb[9]
		a10 += xb[10]
		a11 += xb[11]
		a12 += xb[12]
		a13 += xb[13]
		a14 += xb[14]
		a15 += xb[15]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
	ob[8], ob[9], ob[10], ob[11] = a8, a9, a10, a11
	ob[12], ob[13], ob[14], ob[15] = a12, a13, a14, a15
}

// matMulRow8 computes ob = xb·w for one row block with dout=8, partial sums
// in registers, k ascending with the mv==0 skip — bit-identical to the
// generic path.
func matMulRow8[T Float](ob []T, xb []T, w []T) {
	var a0, a1, a2, a3, a4, a5, a6, a7 T
	for k, mv := range xb {
		if mv == 0 {
			continue
		}
		wr := w[k*8:]
		wr = wr[:8:8]
		a0 += T(mv * wr[0])
		a1 += T(mv * wr[1])
		a2 += T(mv * wr[2])
		a3 += T(mv * wr[3])
		a4 += T(mv * wr[4])
		a5 += T(mv * wr[5])
		a6 += T(mv * wr[6])
		a7 += T(mv * wr[7])
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
}

// matMulRow1 is the dout=1 head: a plain register dot product with the same
// skip and order.
func matMulRow1[T Float](xb []T, w []T) T {
	var acc T
	for k, mv := range xb {
		if mv == 0 {
			continue
		}
		acc += T(mv * w[k])
	}
	return acc
}

// AddReLUInto fuses the convolution epilogue dst[i] = max(dst[i]+a[i], 0)
// over whole backing slices. The AVX2 path keeps the scalar branch's exact
// semantics — negatives clamp to +0, while −0 and NaN sums pass through — so
// it is bit-identical to the portable loop.
func AddReLUInto[T Float](dst, a []T) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: AddReLUInto %d vs %d elements", len(dst), len(a)))
	}
	if vk := avx2For[T](); vk != nil {
		vk.addReLU(dst, a)
		return
	}
	for i, v := range a {
		s := dst[i] + v
		if s < 0 {
			s = 0
		}
		dst[i] = s
	}
}

// spmmOnesKernel and matMulKernel are the signatures of the AVX2 leaves (see
// batch_asm_amd64.go for their contracts).
type (
	spmmOnesKernel[T Float] func(dst []T, rowptr, cols []int32, x []T, rows, stride, off int)
	matMulKernel[T Float]   func(dst, x, w []T, rows, blocks, din, xStride, dstStride int)
)

// avx2Kernels is one precision's set of AVX2 leaves. A nil entry has no
// vector kernel, and the generic Go loop runs instead.
type avx2Kernels[T Float] struct {
	spmmOnes4, spmmOnes8, spmmOnes16 spmmOnesKernel[T]
	matMul8                          matMulKernel[T]
	matMulHead                       matMulKernel[T] // dout=1, din%8 == 0
	addReLU                          func(dst, a []T)
}

// spmmOnes returns the implicit-ones SpMM kernel for column width d, or nil.
func (k *avx2Kernels[T]) spmmOnes(d int) spmmOnesKernel[T] {
	switch d {
	case 4:
		return k.spmmOnes4
	case 8:
		return k.spmmOnes8
	case 16:
		return k.spmmOnes16
	}
	return nil
}

// avx2For returns the AVX2 leaves for T, or nil when the CPU lacks AVX2 or
// the platform has no vector kernels (avx2F64/avx2F32 are nil there).
func avx2For[T Float]() *avx2Kernels[T] {
	if !useAVX2 {
		return nil
	}
	if k, ok := any(avx2F64).(*avx2Kernels[T]); ok {
		return k
	}
	return any(avx2F32).(*avx2Kernels[T])
}
