//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernels: the nil tables make avx2For
// return nil, so the generic Go loops run. useAVX2 stays a var so the
// dispatch tests can flip it uniformly across architectures.
var (
	useAVX2 = false
	avx2F64 *avx2Kernels[float64]
	avx2F32 *avx2Kernels[float32]
)
