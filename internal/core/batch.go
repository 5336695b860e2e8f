package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// BatchOptions configures a batched inference session.
type BatchOptions struct {
	// Float32 routes the forward pass through the float32 kernels: weights
	// are rounded once at session start and all activations accumulate in
	// single precision. Serving-only fast path — decoded sets can differ
	// from the float64 oracle near the decision threshold, so training,
	// evaluation tables, and the CI utility gate never enable it. The
	// utility deviation is bounded by the batch property tests and
	// documented in EXPERIMENTS.md.
	Float32 bool
}

// BatchSession runs POSHGNN inference for many targets of one room in a
// single fused forward pass per step. The K targets' feature matrices are
// stacked target-major into one N×(K·d) batch, every graph convolution runs
// as one multi-column SpMM + blocked projection (tensor.SpMMBatchInto /
// MatMulBlocksInto), and all intermediate activations live in pooled
// scratch — no autodiff tape is built. It is the only inference engine:
// StartEpisode is a one-column view over a BatchSession, and the autodiff
// forward pass serves training only.
//
// The float64 pass is bit-identical to the autodiff forward pass (per
// column block every kernel replicates its accumulation order; pinned by
// TestBatchStepMatchesSequential against a tape oracle). Targets may join
// at any step — state is tracked per target and missing targets simply keep
// their previous state — so the serving micro-batcher can drive one
// BatchSession per room with whatever subset of targets each batch holds.
//
// A BatchSession is safe for concurrent StepTargets calls (an internal
// mutex serializes them), but per target the usual temporal contract holds:
// feed each target's frames in order.
type BatchSession struct {
	model *POSHGNN
	room  *dataset.Room

	mu   sync.Mutex
	eng  engine        // *pass[float64], or *pass[float32] under Float32
	adjs []*tensor.CSR // reused per-step graph list (len = batch K)

	// traceParent parents the next batch.step span (atomic: serving workers
	// may set it concurrently with another worker's StepTargets). curSpan is
	// the in-flight batch.step span id the phase spans hang off; it is only
	// touched under mu.
	traceParent atomic.Uint64
	curSpan     obs.SpanID

	// profLabels carries the (room, rec) pprof label set phase switches key
	// off (atomic for the same reason as traceParent; nil = unlabeled).
	profLabels atomic.Pointer[prof.Labels]
}

// engine is the precision-specific half of a BatchSession. Both methods
// run under the session mutex.
type engine interface {
	step(b *BatchSession, targets []int, frames []*occlusion.StaticGraph) [][]bool
	probabilities(target int) []float64
}

// SetTraceParent parents subsequent StepTargets spans (batch.step and its
// mia/pdr/lwp/decode phases) under parent, implementing sim.TraceCarrier so
// the serving layer's batch span adopts the fused forward pass.
func (b *BatchSession) SetTraceParent(parent obs.SpanID) {
	b.traceParent.Store(uint64(parent))
}

// SetProfLabels attaches a (room, rec) pprof label set to subsequent
// StepTargets calls, implementing prof.Carrier: each forward phase switches
// the calling goroutine to its phase-refined labels so continuous-profiler
// samples attribute to the same mia/pdr/lwp/decode/spmm coordinates the span
// tracer names. nil detaches.
func (b *BatchSession) SetProfLabels(l *prof.Labels) {
	b.profLabels.Store(l)
}

// StartBatchSession begins batched inference over room. Every target of the
// room may be stepped through the returned session; per-target recurrent
// state is created on first use.
func (m *POSHGNN) StartBatchSession(room *dataset.Room, opt BatchOptions) *BatchSession {
	b := &BatchSession{model: m, room: room}
	if opt.Float32 {
		b.eng = newPass[float32](m, fast)
	} else {
		b.eng = newPass[float64](m, exact)
	}
	return b
}

// StepTargets advances every listed target by one step in a single fused
// forward pass and returns each target's rendered set, index-aligned with
// targets. frames[k] must be target k's occlusion frame for step t (its
// Target field set accordingly). Targets should be distinct — duplicates are
// harmless (identical columns) but advance the shared state once per copy.
func (b *BatchSession) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	if len(targets) == 0 || len(targets) != len(frames) {
		panic(fmt.Sprintf("core: StepTargets %d targets, %d frames", len(targets), len(frames)))
	}
	for _, target := range targets {
		if target < 0 || target >= b.room.N {
			panic(fmt.Sprintf("core: target %d out of range", target))
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sp := obs.BeginChild("batch.step", obs.SpanID(b.traceParent.Load()))
	b.curSpan = sp.ID()
	defer sp.End()
	// Enter the batch phase for the fused pass; restore the ambient (room,
	// rec) labels on exit so the caller's goroutine doesn't keep reporting a
	// finished phase. Load-and-branch no-ops when profiling is off.
	lbl := b.profLabels.Load()
	lbl.Set(prof.PhaseBatch)
	defer lbl.Set(prof.PhaseNone)
	return b.eng.step(b, targets, frames)
}

// precision holds what the two instantiations of the pass do differently.
type precision[T tensor.Float] struct {
	// addSigmoid sets dst[i] = σ(dst[i] + z[i]).
	addSigmoid func(dst, z []T)
	// reassociate computes a narrowing convolution's (dout < din) aggregate
	// as A·(in·M2) instead of (A·in)·M2 — the same value under exact
	// arithmetic, but the sparse gather then runs at the output width (1 or
	// 8 columns instead of 8 or 16), roughly halving the model's SpMM
	// traffic. Float64 never reassociates: its accumulation order is
	// contractual.
	reassociate bool
}

// exact is the float64 pass: math.Exp sigmoid, the autodiff order
// everywhere. fast is the float32 pass, held to the tolerance contract.
var (
	exact = &precision[float64]{addSigmoid: addSigmoidExact}
	fast  = &precision[float32]{addSigmoid: addSigmoidFast, reassociate: true}
)

func addSigmoidExact(dst, z []float64) {
	for i, v := range z {
		dst[i] = 1 / (1 + math.Exp(-(dst[i] + v)))
	}
}

func addSigmoidFast(dst, z []float32) {
	for i, v := range z {
		dst[i] = fastSigmoid32(dst[i] + v)
	}
}

// fastSigmoid32 evaluates 1/(1+e^{−z}) with a range-reduced degree-5
// polynomial exponential instead of math.Exp. The polynomial's relative
// error (≤ ~3e-6 over the reduced range |r| ≤ ln2/2) lands the sigmoid
// within ~1e-6 of the math.Exp value — far inside the float32 path's 1e-3
// probability tolerance — while skipping math.Exp's call and
// high-precision reconstruction. Only the float32 path uses it: the float64
// sigmoid stays on math.Exp, whose bits are contractual.
func fastSigmoid32(z float32) float32 {
	x := -float64(z)
	// e^{±45} saturates the sigmoid past any float32 distinction.
	if x > 45 {
		return 0
	}
	if x < -45 {
		return 1
	}
	k := math.Floor(x*1.4426950408889634 + 0.5) // round(x/ln2)
	r := x - k*0.6931471805599453
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	e := p * math.Float64frombits(uint64(int64(k)+1023)<<52)
	return float32(1 / (1 + e))
}

// convWeights is one graph convolution's (M1, M2) pair at precision T.
type convWeights[T tensor.Float] struct{ m1, m2 *tensor.Dense[T] }

func weightsOf[T tensor.Float](gc *nn.GraphConv) convWeights[T] {
	return convWeights[T]{tensor.As[T](gc.M1.Value), tensor.As[T](gc.M2.Value)}
}

// pass is the batched forward pass at precision T. The float64 pass aliases
// the model's weights; the float32 pass rounds them once, here.
type pass[T tensor.Float] struct {
	*precision[T]
	pdr1, pdr2, lwp1, lwp2, lwp3 convWeights[T]
	states                       map[int]*batchState[T]
}

func newPass[T tensor.Float](m *POSHGNN, prec *precision[T]) *pass[T] {
	p := &pass[T]{
		precision: prec,
		pdr1:      weightsOf[T](m.pdr1),
		pdr2:      weightsOf[T](m.pdr2),
		states:    make(map[int]*batchState[T]),
	}
	if m.cfg.UseLWP {
		p.lwp1, p.lwp2, p.lwp3 = weightsOf[T](m.lwp1), weightsOf[T](m.lwp2), weightsOf[T](m.lwp3)
	}
	return p
}

// batchState is one target's recurrent state inside a BatchSession — the
// previous frame, r_{t−1} and h_{t−1}, stored as raw slices at the pass's
// precision because the batched forward never touches the autodiff tape.
type batchState[T tensor.Float] struct {
	prevFrame *occlusion.StaticGraph
	prevR     []T
	prevH     []T

	// Degree caches for the Δ features: deg/two hold |N(w)| and
	// Σ_{u∈N(w)}|N(u)| of degFrame, degPrev/twoPrev the same for
	// degPrevFrame. All values are exact small integers in float64, so
	// caching them across steps changes no bits — it only spares the
	// previous frame's recomputation every step.
	deg, two               []float64
	degPrev, twoPrev       []float64
	degFrame, degPrevFrame *occlusion.StaticGraph
}

// state returns (creating if needed) the recurrent state of one target.
func (p *pass[T]) state(target, n, hid int) *batchState[T] {
	st := p.states[target]
	if st == nil {
		st = &batchState[T]{prevR: make([]T, n), prevH: make([]T, n*hid)}
		p.states[target] = st
	}
	return st
}

// probabilities returns a copy of target's last r_t, nil before its first
// step.
func (p *pass[T]) probabilities(target int) []float64 {
	st := p.states[target]
	if st == nil || st.prevFrame == nil {
		return nil
	}
	out := make([]float64, len(st.prevR))
	for w, v := range st.prevR {
		out[w] = float64(v)
	}
	return out
}

// elementwise activation selectors for the fused conv epilogues.
const (
	actReLU = iota
	actSigmoid
)

// conv runs one graph convolution over the whole batch:
// dst = act(in·M1 + (A_k·in)·M2 per column block k). The additive order —
// the dense term fully materialized first, the aggregated term second, then
// a single elementwise add — replicates GraphConv.ForwardSparse exactly, so
// every float64 column stays bit-identical to the autodiff path.
//
// lbl/ret refine the profiling attribution: the sparse gather runs under the
// spmm phase label and the enclosing phase (ret) is restored afterwards, so
// flamegraphs separate SpMM bandwidth from the dense projections.
func (p *pass[T]) conv(dst, in *tensor.Dense[T], adjs []*tensor.CSR, w convWeights[T], act int, lbl *prof.Labels, ret prof.Phase) {
	ws := tensor.Scratch[T]()
	k := len(adjs)
	din, dout := w.m2.Rows, w.m2.Cols
	tensor.MatMulBlocksInto(dst, in, w.m1, k)
	agg := ws.Get(dst.Rows, dst.Cols)
	if p.reassociate && dout < din {
		hm := ws.Get(in.Rows, k*dout)
		tensor.MatMulBlocksInto(hm, in, w.m2, k)
		lbl.Set(prof.PhaseSpMM)
		tensor.SpMMBatchInto(agg, adjs, hm)
		lbl.Set(ret)
		ws.Put(hm)
	} else {
		msg := ws.Get(in.Rows, in.Cols)
		lbl.Set(prof.PhaseSpMM)
		tensor.SpMMBatchInto(msg, adjs, in)
		lbl.Set(ret)
		tensor.MatMulBlocksInto(agg, msg, w.m2, k)
		ws.Put(msg)
	}
	switch act {
	case actReLU:
		tensor.AddReLUInto(dst.Data, agg.Data)
	case actSigmoid:
		p.addSigmoid(dst.Data, agg.Data)
	}
	ws.Put(agg)
}

// step is the fused forward pass: MIA → PDR → LWP → preservation gate →
// decode for every column. Products feeding a sum are written T(a*b) so the
// compiler cannot fuse them (see internal/tensor/batch.go).
func (p *pass[T]) step(b *BatchSession, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	m, room := b.model, b.room
	n, bk, hid := room.N, len(targets), m.cfg.Hidden
	useLWP := m.cfg.UseLWP
	ws := tensor.Scratch[T]()
	lbl := b.profLabels.Load()

	spMIA := obs.BeginChild("mia", b.curSpan)
	lbl.Set(prof.PhaseMIA)
	if cap(b.adjs) < bk {
		b.adjs = make([]*tensor.CSR, bk)
	}
	adjs := b.adjs[:bk]
	x := ws.Get(n, bk*featureDim)
	mask := ws.Get(n, bk)
	var delta, prevH, prevR *tensor.Dense[T]
	if useLWP {
		delta = ws.Get(n, bk*deltaDim)
		prevH = ws.Get(n, bk*hid)
		prevR = ws.Get(n, bk)
	}
	for k, target := range targets {
		st := p.state(target, n, hid)
		p.fillColumns(b, k, bk, frames[k], st, x, mask, prevR, delta, prevH)
		adjs[k] = frames[k].AdjacencyCSR()
	}
	spMIA.End()

	spPDR := obs.BeginChild("pdr", b.curSpan)
	lbl.Set(prof.PhasePDR)
	h := ws.Get(n, bk*hid)
	p.conv(h, x, adjs, p.pdr1, actReLU, lbl, prof.PhasePDR)
	rt := ws.Get(n, bk)
	p.conv(rt, h, adjs, p.pdr2, actSigmoid, lbl, prof.PhasePDR)
	spPDR.End()

	r := ws.Get(n, bk)
	if !useLWP {
		lbl.Set(prof.PhaseBatch)
		for i, mv := range mask.Data {
			r.Data[i] = mv * rt.Data[i]
		}
	} else {
		spLWP := obs.BeginChild("lwp", b.curSpan)
		lbl.Set(prof.PhaseLWP)
		lwpWidth := featureDim + deltaDim + hid + 1
		lwpIn := ws.Get(n, bk*lwpWidth)
		// Assemble [x̂ ‖ Δ ‖ h_{t-1} ‖ r_{t-1}] per column block — the wide
		// layout of tensor.Concat's column order.
		for i := 0; i < n; i++ {
			row := lwpIn.Data[i*lwpIn.Cols : (i+1)*lwpIn.Cols]
			for k := 0; k < bk; k++ {
				o := k * lwpWidth
				copy(row[o:o+featureDim], x.Data[i*x.Cols+k*featureDim:][:featureDim])
				copy(row[o+featureDim:o+featureDim+deltaDim], delta.Data[i*delta.Cols+k*deltaDim:][:deltaDim])
				copy(row[o+featureDim+deltaDim:o+lwpWidth-1], prevH.Data[i*prevH.Cols+k*hid:][:hid])
				row[o+lwpWidth-1] = prevR.Data[i*bk+k]
			}
		}
		z1 := ws.Get(n, bk*hid)
		p.conv(z1, lwpIn, adjs, p.lwp1, actReLU, lbl, prof.PhaseLWP)
		z2 := ws.Get(n, bk*hid)
		p.conv(z2, z1, adjs, p.lwp2, actReLU, lbl, prof.PhaseLWP)
		sigma := ws.Get(n, bk)
		p.conv(sigma, z2, adjs, p.lwp3, actSigmoid, lbl, prof.PhaseLWP)
		// Preservation gate, in the autodiff scalar order:
		// r = m ⊗ [(1−σ)⊗r̃ + σ⊗r_{t−1}].
		for i, mv := range mask.Data {
			s := sigma.Data[i]
			r.Data[i] = mv * (T((1-s)*rt.Data[i]) + T(s*prevR.Data[i]))
		}
		ws.Put(lwpIn)
		ws.Put(z1)
		ws.Put(z2)
		ws.Put(sigma)
		ws.Put(delta)
		ws.Put(prevH)
		ws.Put(prevR)
		spLWP.End()
	}

	// Scatter recurrent state back and decode each target's column.
	spDecode := obs.BeginChild("decode", b.curSpan)
	lbl.Set(prof.PhaseDecode)
	out := make([][]bool, bk)
	col := tensor.Scratch[float64]().Get(n, 1)
	for k, target := range targets {
		st := p.states[target]
		st.prevFrame = frames[k]
		for w := 0; w < n; w++ {
			st.prevR[w] = r.Data[w*bk+k]
			col.Data[w] = float64(r.Data[w*bk+k])
			copy(st.prevH[w*hid:(w+1)*hid], h.Data[w*h.Cols+k*hid:][:hid])
		}
		out[k] = m.decode(col, frames[k], target)
	}
	tensor.Scratch[float64]().Put(col)
	spDecode.End()

	ws.Put(x)
	ws.Put(mask)
	ws.Put(h)
	ws.Put(rt)
	ws.Put(r)
	return out
}

// fillColumns writes one target's features into column block k of the wide
// matrices, replicating MIA.Aggregate (and fillDelta) value for value: the
// target row is all-zero with mask 0, distance is scaled by the room
// diagonal, the physical mask prunes MR-occluded users for an MR target, and
// the blocklist zeroes its entries. Features are computed in float64 and
// rounded once on store. delta, prevH and prevR are nil without LWP.
func (p *pass[T]) fillColumns(b *BatchSession, k, bk int, frame *occlusion.StaticGraph, st *batchState[T], x, mask, prevR, delta, prevH *tensor.Dense[T]) {
	room, mia := b.room, &b.model.mia
	n := room.N
	target := frame.Target
	roomDiag := math.Sqrt2 * 10
	targetMR := mia.Enabled && room.Interfaces[target] == occlusion.MR
	for w := 0; w < n; w++ {
		xw := x.Data[w*x.Cols+k*featureDim:][:featureDim]
		if w == target {
			clear(xw)
			mask.Data[w*bk+k] = 0
			continue
		}
		xw[0] = T(room.Pref(target, w))
		xw[1] = T(room.Social(target, w))
		xw[2] = T(math.Min(1, frame.Dist[w]/roomDiag))
		xw[3] = 0
		if room.Interfaces[w] == occlusion.MR {
			xw[3] = 1
		}
		mk := T(1)
		if targetMR {
			// Inlined occlusion.PhysicalMask: an MR target loses sight of
			// any user occluded by another physically present MR user.
			for _, u := range frame.Neighbors(w) {
				if int(u) != target && room.Interfaces[u] == occlusion.MR {
					mk = 0
					break
				}
			}
		}
		if mia.Blocklist != nil && mia.Blocklist[w] {
			mk = 0
		}
		mask.Data[w*bk+k] = mk
	}
	if delta == nil {
		return
	}
	// Δ_t: zero when MIA is disabled, matching the autodiff path's untouched
	// zero matrix.
	var deg, two, degPrev, twoPrev []float64
	if mia.Enabled {
		deg, two, degPrev, twoPrev = st.deltaDegrees(frame)
	}
	scale := 1 / float64(n)
	hid := b.model.cfg.Hidden
	for w := 0; w < n; w++ {
		dw := delta.Data[w*delta.Cols+k*deltaDim:][:deltaDim]
		if mia.Enabled {
			dw[0] = 1
			dw[1] = T((deg[w] - degPrev[w]) * scale)
			dw[2] = T((two[w] - twoPrev[w]) * scale)
		} else {
			clear(dw)
		}
		prevR.Data[w*bk+k] = st.prevR[w]
		copy(prevH.Data[w*prevH.Cols+k*hid:][:hid], st.prevH[w*hid:(w+1)*hid])
	}
}

// degTwoInto fills deg[w] = |N(w)| and two[w] = Σ_{u∈N(w)} |N(u)| for frame,
// straight off the CSR arrays (no per-neighbor method calls). Both are exact
// small integers in float64, so the sums match fillDelta's Neighbors-based
// computation bit for bit regardless of iteration order.
func degTwoInto(frame *occlusion.StaticGraph, deg, two []float64) {
	csr := frame.AdjacencyCSR()
	for w := range deg {
		deg[w] = float64(csr.RowPtr[w+1] - csr.RowPtr[w])
	}
	for w := range two {
		var s float64
		for _, u := range csr.Col[csr.RowPtr[w]:csr.RowPtr[w+1]] {
			s += deg[u]
		}
		two[w] = s
	}
}

// deltaDegrees returns the degree sums of frame and of the target's previous
// frame, serving the previous step's sums from the state cache (each frame's
// sums are computed once, when it is current). The returned slices alias the
// cache and are valid until the target's next step. Duplicate columns for the
// same target within one batch see identical sums.
func (st *batchState[T]) deltaDegrees(frame *occlusion.StaticGraph) (deg, two, degPrev, twoPrev []float64) {
	n := frame.N
	if st.deg == nil {
		st.deg, st.two = make([]float64, n), make([]float64, n)
		st.degPrev, st.twoPrev = make([]float64, n), make([]float64, n)
	}
	if st.degFrame == frame && st.degPrevFrame == st.prevFrame {
		return st.deg, st.two, st.degPrev, st.twoPrev
	}
	switch {
	case st.prevFrame != nil && st.degFrame == st.prevFrame:
		st.deg, st.degPrev = st.degPrev, st.deg
		st.two, st.twoPrev = st.twoPrev, st.two
	case st.prevFrame != nil:
		degTwoInto(st.prevFrame, st.degPrev, st.twoPrev)
	default:
		clear(st.degPrev)
		clear(st.twoPrev)
	}
	st.degPrevFrame = st.prevFrame
	degTwoInto(frame, st.deg, st.two)
	st.degFrame = frame
	return st.deg, st.two, st.degPrev, st.twoPrev
}

// decode turns one target's probability column into the rendered set:
// greedy de-occlusion by default, plain thresholding under RawDecode, a
// non-positive budget meaning unlimited on both paths (see the regression
// test TestRawDecodeBudgetZeroMeansUnlimited).
func (m *POSHGNN) decode(r *tensor.Matrix, frame *occlusion.StaticGraph, target int) []bool {
	cfg := &m.cfg
	if !cfg.RawDecode {
		return decodeRecommendation(r, frame, target, cfg.Threshold, cfg.MaxRender)
	}
	rendered := make([]bool, r.Rows)
	admitted := 0
	for w := 0; w < r.Rows; w++ {
		if w == target {
			continue
		}
		if cfg.MaxRender > 0 && admitted >= cfg.MaxRender {
			break
		}
		if r.Data[w] >= cfg.Threshold {
			rendered[w] = true
			admitted++
		}
	}
	return rendered
}

// Session is one target's inference episode: a single-column view over a
// BatchSession. Every Step is a one-target StepTargets call against the
// session's per-target state, so a solo episode runs the fused engine, and
// views of a shared BatchSession see the same recurrent history as its
// fused batches.
type Session struct {
	b      *BatchSession
	target int
}

// TargetStepper returns a single-target view sharing this session's state.
// It satisfies sim.Stepper (core does not import sim).
func (b *BatchSession) TargetStepper(target int) *Session {
	if target < 0 || target >= b.room.N {
		panic(fmt.Sprintf("core: target %d out of range", target))
	}
	return &Session{b: b, target: target}
}

// Step consumes the occlusion frame for time t and returns the rendered set
// (rendered[w] = true ⇔ w ∈ F_t(v)). The session carries state across calls,
// so callers must feed frames in temporal order.
func (s *Session) Step(t int, frame *occlusion.StaticGraph) []bool {
	return s.b.StepTargets(t, []int{s.target}, []*occlusion.StaticGraph{frame})[0]
}

// Probabilities returns the last step's recommendation vector r_t, useful
// for diagnostics; nil before the first Step.
func (s *Session) Probabilities() []float64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.eng.probabilities(s.target)
}

// SetProfLabels attaches a (room, rec) pprof label set to subsequent steps
// (prof.Carrier), forwarded to the underlying session so a solo episode is
// attributed like a fused one. nil detaches.
func (s *Session) SetProfLabels(l *prof.Labels) { s.b.SetProfLabels(l) }
