package tensor

import "sync"

// Workspace is a size-bucketed scratch-buffer pool for Dense[T] values. The
// autodiff tape is MatMul/Clone-heavy: every Backward pass materializes
// transposes, negations, and activation-derivative products that live only
// until the next accumulate call. Routing those short-lived temporaries
// through a Workspace cuts the allocation churn of training (the
// BenchmarkTrainingEpoch allocs/op drop is recorded in EXPERIMENTS.md).
//
// The batched inference pass pools every intermediate activation the same
// way, at the precision it runs in.
//
// A Workspace is safe for concurrent use — the parallel model-selection grid
// trains several models at once against the shared default workspace.
//
// Discipline: Get hands out a matrix with undefined contents (use GetZeroed
// when the caller accumulates into it); Put returns it. Forgetting Put is
// safe (the buffer is garbage-collected); Putting a matrix that is still
// referenced elsewhere is the caller's bug, exactly like any pool.
type Workspace[T Float] struct {
	pools sync.Map // total element count -> *sync.Pool of *Dense[T]
}

// defaultWorkspace backs the autodiff engine's internal temporaries and the
// float64 inference pass; defaultWorkspace32 backs the float32 pass.
var (
	defaultWorkspace   = &Workspace[float64]{}
	defaultWorkspace32 = &Workspace[float32]{}
)

// Scratch returns the shared default workspace of precision T, for callers
// outside the package that want to pool their own temporaries alongside the
// tape's.
func Scratch[T Float]() *Workspace[T] {
	if w, ok := any(defaultWorkspace).(*Workspace[T]); ok {
		return w
	}
	return any(defaultWorkspace32).(*Workspace[T])
}

func (w *Workspace[T]) pool(n int) *sync.Pool {
	if p, ok := w.pools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := w.pools.LoadOrStore(n, &sync.Pool{New: func() any {
		return &Dense[T]{Data: make([]T, n)}
	}})
	return p.(*sync.Pool)
}

// Get returns a rows×cols matrix with undefined contents. Any rows×cols
// factorization of the same element count shares one bucket.
func (w *Workspace[T]) Get(rows, cols int) *Dense[T] {
	if rows <= 0 || cols <= 0 {
		panic("tensor: Workspace.Get with non-positive shape")
	}
	m := w.pool(rows * cols).Get().(*Dense[T])
	m.Rows, m.Cols = rows, cols
	return m
}

// GetZeroed returns a rows×cols matrix with every element set to 0.
func (w *Workspace[T]) GetZeroed(rows, cols int) *Dense[T] {
	m := w.Get(rows, cols)
	m.Zero()
	return m
}

// GetCopy returns a pooled deep copy of src.
func (w *Workspace[T]) GetCopy(src *Dense[T]) *Dense[T] {
	m := w.Get(src.Rows, src.Cols)
	copy(m.Data, src.Data)
	return m
}

// Put returns m to the workspace. m must not be used afterwards.
func (w *Workspace[T]) Put(m *Dense[T]) {
	if m == nil {
		return
	}
	w.pool(len(m.Data)).Put(m)
}
