// Package occlusion implements the paper's occlusion machinery (Sec. III-B):
// the circular-arc occlusion-graph converter, the dynamic occlusion graph
// (DOG, Definition 4), and the visibility indicator 1[v ⇒ w] that gates the
// AFTER utility.
//
// The flat-world converter places the target user at the centre of her
// 360-degree view circle; every other user occupies the arc subtended by a
// disk of the avatar radius at her distance. Two users are connected in the
// static occlusion graph exactly when their arcs overlap.
//
// BuildStatic finds the overlapping pairs with an endpoint-sort sweep over
// the view circle in O(N log N + E + N²/64) instead of the O(N²) all-pairs
// arc test (retained as BuildStaticBrute, the reference implementation the
// property and fuzz tests compare against). Serving converts one graph per
// target per frame, so the sweep is on the request path: its transient
// buffers come from a sync.Pool, and the graph it returns is CSR-native —
// the row-pointer and column arrays the converter writes are the ones
// Neighbors slices and AdjacencyCSR hands to the GNN kernels, owned by that
// graph alone.
package occlusion

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/parallel"
	"after/internal/tensor"
)

// Interface is the immersiveness level of a user's device (F3 in the
// paper): VR users join remotely, MR users are physically co-located.
type Interface uint8

const (
	// VR marks a remote participant in fully virtual mode.
	VR Interface = iota
	// MR marks an in-person participant whose body is physically present
	// for co-located users.
	MR
)

// String implements fmt.Stringer.
func (i Interface) String() string {
	if i == MR {
		return "MR"
	}
	return "VR"
}

// DefaultAvatarRadius is the disk radius (metres) used to convert avatar
// bodies into view arcs; roughly the shoulder half-width of an adult.
const DefaultAvatarRadius = 0.25

// StaticGraph is the occlusion graph O_t^v of one time instance for one
// target user: a circular-arc graph over all other users plus the isolated
// target node.
//
// The adjacency is stored natively in CSR form: the converter writes rowPtr
// and col directly, Neighbors slices col, and AdjacencyCSR wraps the same
// two arrays. Both arrays belong to this graph alone — never to a pooled
// buffer — because callers keep graphs alive across frames (serving's
// previous-frame pointer and the Δ-degree caches keyed on it).
type StaticGraph struct {
	// N is the total user count, including the target.
	N int
	// Target is the index of the target user v (an isolated node).
	Target int
	// Arcs[w] is the view arc of user w from the target's position;
	// Arcs[Target] is the zero Arc and never consulted.
	Arcs []geom.Arc
	// Dist[w] is the distance from the target to w; Dist[Target] = 0.
	Dist []float64

	// rowPtr (length N+1) and col (length 2·edges) are the symmetric
	// adjacency: col[rowPtr[w]:rowPtr[w+1]] lists w's occlusion neighbors in
	// ascending order. The target's row is empty and no row references it.
	rowPtr []int32
	col    []int32

	// Memoized derived structures: a DOG frame is shared by every
	// recommender evaluated on the same scene, and before memoization each
	// of the 4+ GNN methods rebuilt the dense N×N adjacency every step.
	adjOnce sync.Once
	adj     *tensor.Matrix
	csrOnce sync.Once
	csr     *tensor.CSR
}

// newStaticGraph validates inputs and fills arcs and distances; the edge
// structure is left to the caller (sweep or brute force).
func newStaticGraph(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	n := len(positions)
	if target < 0 || target >= n {
		panic(fmt.Sprintf("occlusion: target %d out of range [0,%d)", target, n))
	}
	if radius <= 0 {
		panic("occlusion: non-positive avatar radius")
	}
	g := &StaticGraph{
		N:      n,
		Target: target,
		Arcs:   make([]geom.Arc, n),
		Dist:   make([]float64, n),
	}
	eye := positions[target]
	for w := 0; w < n; w++ {
		if w == target {
			continue
		}
		d := eye.Dist(positions[w])
		g.Arcs[w] = geom.ArcAtDist(eye, positions[w], radius, d)
		g.Dist[w] = d
	}
	return g
}

// BuildStatic converts a snapshot of user positions into the target user's
// static occlusion graph. radius is the avatar disk radius. Edges are found
// with the endpoint-sort sweep; the result is the identical edge set the
// brute-force converter produces (a property the tests enforce against
// BuildStaticBrute on random rooms, wrap-around arcs included).
func BuildStatic(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	s := scratchPool.Get().(*sweepScratch)
	g.buildSweep(s)
	scratchPool.Put(s)
	return g
}

// BuildStaticBrute is the original O(N²) all-pairs converter, retained as
// the executable specification of the edge relation: the sweep must agree
// with it bit-for-bit. It shares no code with the sweep beyond the arcs
// themselves, which is what makes it a useful oracle for the tests and the
// baseline side of BenchmarkBuildStatic.
func BuildStaticBrute(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	rows := make([][]int32, g.N)
	for i := 0; i < g.N; i++ {
		if i == target {
			continue
		}
		for j := i + 1; j < g.N; j++ {
			if j == target {
				continue
			}
			if g.Arcs[i].Overlaps(g.Arcs[j]) {
				rows[i] = append(rows[i], int32(j))
				rows[j] = append(rows[j], int32(i))
			}
		}
	}
	g.rowPtr = make([]int32, g.N+1)
	for w, ns := range rows {
		g.col = append(g.col, ns...)
		g.rowPtr[w+1] = int32(len(g.col))
	}
	return g
}

// sweepSlack inflates the candidate intervals of the sweep so that floating
// rounding in angle normalization and the 1e-12 tolerance inside
// geom.Arc.Overlaps can never hide a true edge from the candidate pass.
// Candidates that are not edges by construction (see buildSweep) are then
// confirmed with the exact Overlaps predicate, so the final edge set matches
// the brute-force reference exactly.
const sweepSlack = 1e-9

// sweepKey is one proper arc's sort key: the IEEE-754 bit pattern of its
// inflated start angle and its user index. Every start is a NormalizeAngle
// result in [+0, 2π] (or NaN for a non-finite position), where the bit
// pattern orders like the value and NaN sorts last.
type sweepKey struct {
	start uint64
	idx   int32
}

// sweepScratch holds the converter's transient buffers. Conversions run on
// every serving pass and every DOG frame, so the buffers are recycled
// through scratchPool instead of being reallocated per call; nothing in
// here is ever reachable from a returned StaticGraph.
type sweepScratch struct {
	full   []int32    // users with full arcs
	keys   []sweepKey // proper arcs, sorted by (start, idx)
	starts []float64  // sorted inflated starts, then the same +2π
	order  []int32    // user at each sorted position, repeated
	// adj is the adjacency as an N×⌈N/64⌉-word bit matrix. Edges found
	// twice merge for free, and reading rows out word by word yields each
	// row already in ascending order. setCSR clears the words it consumes,
	// so adj is all-zero whenever the scratch is in the pool.
	adj []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// resize returns buf with length n, reusing its backing array when it is
// large enough. Reused contents are left as they were.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// buildSweep fills the graph's CSR adjacency with the occlusion edges in
// O(N log N + E + N²/64): arcs become closed angular intervals, interval
// starts are sorted once, and each arc scans only the starts that fall
// inside its own (slack-inflated) interval. Two circular arcs intersect
// exactly when one's start lies inside the other, so every true edge is
// enumerated at least once; the bit matrix absorbs the pairs found from
// both sides.
//
// Most candidates are edges by construction and skip the exact check. Let
// arc i have centre c_i and half-width h_i, and let s_i = c_i − h_i − δ be
// its inflated start (δ = sweepSlack). A candidate j found from i at forward
// distance d = s_j − s_i ∈ [0, 2h_i + 2δ] (mod 2π) has, in exact arithmetic,
// centre offset x = c_j − c_i = d + h_j − h_i, so d ≤ 2h_i gives
// −h_i ≤ x ≤ h_i + h_j and the circular distance between the centres is at
// most |x| ≤ h_i + h_j: the arcs overlap. The computed starts (and the
// repeated starts + 2π) carry at most a few roundings of magnitude
// ≤ ulp(4π)/2 ≈ 8.9e-16 each, so when the computed start of j is
// ≤ s_i + 2h_i the true offset exceeds h_i + h_j by at most ~1e-14, and
// Overlaps — which compares |AngleDiff| (two more roundings) against
// h_i + h_j + 1e-12 — accepts with a margin of ~100×. Only the candidates
// inside the rounding band (2h_i, 2h_i + 2δ] at the end of the inflated
// interval run Overlaps.
//
// Full arcs (users standing within the avatar radius of the eye) cover the
// whole circle and overlap everyone; they are linked directly, which also
// handles co-located users at distance ≈ 0.
func (g *StaticGraph) buildSweep(s *sweepScratch) {
	const twoPi = 2 * math.Pi
	n := g.N
	words := (n + 63) / 64
	adj := resize(s.adj, n*words)
	link := func(a, b int32) {
		adj[int(a)*words+int(b>>6)] |= 1 << (b & 63)
		adj[int(b)*words+int(a>>6)] |= 1 << (a & 63)
	}
	full := s.full[:0]
	keys := s.keys[:0]
	for w := 0; w < n; w++ {
		if w == g.Target {
			continue
		}
		a := g.Arcs[w]
		if a.Full() {
			full = append(full, int32(w))
			continue
		}
		start := geom.NormalizeAngle(a.Center - a.HalfWidth - sweepSlack)
		keys = append(keys, sweepKey{start: math.Float64bits(start), idx: int32(w)})
	}

	// Full arcs overlap every other user (Arc.Overlaps short-circuits on
	// Full). Link full×full and full×proper directly.
	for i, f := range full {
		for _, h := range full[i+1:] {
			link(f, h)
		}
		for _, k := range keys {
			link(f, k.idx)
		}
	}

	// Spelled out rather than cmp.Or(cmp.Compare, cmp.Compare), which
	// always evaluates both comparisons: that made an N=500 conversion ~15%
	// slower (2-vCPU x86-64 VM, go1.24).
	slices.SortFunc(keys, func(a, b sweepKey) int {
		if a.start != b.start {
			if a.start < b.start {
				return -1
			}
			return 1
		}
		return int(a.idx - b.idx)
	})
	// Repeating the sorted starts one turn later turns the cyclic scan
	// into a straight linear one (no modulo on the hot path).
	m := len(keys)
	starts := resize(s.starts, 2*m)
	order := resize(s.order, 2*m)
	for r, k := range keys {
		starts[r] = math.Float64frombits(k.start)
		starts[r+m] = starts[r] + twoPi
		order[r], order[r+m] = k.idx, k.idx
	}
	for p := 0; p < m; p++ {
		i := order[p]
		arcI := g.Arcs[i]
		sure := starts[p] + 2*arcI.HalfWidth
		limit := starts[p] + 2*(arcI.HalfWidth+sweepSlack)
		q, end := p+1, p+m
		for ; q < end && starts[q] <= sure; q++ {
			link(i, order[q])
		}
		for ; q < end && starts[q] <= limit; q++ {
			if j := order[q]; arcI.Overlaps(g.Arcs[j]) {
				link(i, j)
			}
		}
	}
	g.setCSR(adj, words)
	s.full, s.keys, s.starts, s.order, s.adj = full, keys, starts, order, adj
}

// setCSR reads the bit matrix out into the graph's CSR arrays — each row in
// canonical ascending order, what the brute-force nested loop produces — and
// zeroes it for the next conversion. Only rowPtr and col are allocated;
// they are the graph's.
func (g *StaticGraph) setCSR(adj []uint64, words int) {
	n := g.N
	nnz := 0
	for _, x := range adj {
		nnz += bits.OnesCount64(x)
	}
	// One allocation backs both arrays.
	csr := make([]int32, n+1+nnz)
	rowPtr, col := csr[:n+1:n+1], csr[n+1:]
	pos := 0
	for w := 0; w < n; w++ {
		rowPtr[w] = int32(pos)
		row := adj[w*words : (w+1)*words]
		for k, x := range row {
			if x == 0 {
				continue
			}
			row[k] = 0
			base := int32(64 * k)
			for ; x != 0; x &= x - 1 {
				col[pos] = base + int32(bits.TrailingZeros64(x))
				pos++
			}
		}
	}
	rowPtr[n] = int32(pos)
	g.rowPtr, g.col = rowPtr, col
}

// Occludes reports whether users i and j overlap in the target's view (the
// occlusion-graph edge relation). The target never participates in edges.
func (g *StaticGraph) Occludes(i, j int) bool {
	if i == g.Target || j == g.Target || i == j {
		return false
	}
	return g.Arcs[i].Overlaps(g.Arcs[j])
}

// Neighbors returns the occlusion neighbors of w in ascending order. The
// slice is a capacity-capped window into the graph's CSR column array;
// callers must not mutate it.
func (g *StaticGraph) Neighbors(w int) []int32 {
	lo, hi := g.rowPtr[w], g.rowPtr[w+1]
	return g.col[lo:hi:hi]
}

// EdgeCount returns the number of occlusion edges.
func (g *StaticGraph) EdgeCount() int { return len(g.col) / 2 }

// AdjacencyCSR returns A_t as a symmetric implicit-ones CSR pattern, the
// form every GNN path consumes: message passing is per-edge work, so the
// sparse kernels never pay the O(N²) a densified adjacency costs. The
// pattern wraps the graph's own rowPtr/col arrays without copying. It is
// memoized and shared by every caller (several recommenders step the same
// frame), so it must be treated as read-only; all kernels do.
func (g *StaticGraph) AdjacencyCSR() *tensor.CSR {
	g.csrOnce.Do(func() {
		g.csr = tensor.NewCSR(g.N, g.N, g.rowPtr, g.col, nil, true)
	})
	return g.csr
}

// AdjacencyMatrix materializes A_t as a dense 0/1 matrix. It is retained as
// a test/compat helper (property tests pin the sparse forward against it,
// and the `-exp scale` harness times the dense path it used to power); the
// inference and training paths consume AdjacencyCSR instead. The matrix is
// memoized and shared, so callers must treat it as read-only.
func (g *StaticGraph) AdjacencyMatrix() *tensor.Matrix {
	g.adjOnce.Do(func() {
		a := tensor.NewMatrix(g.N, g.N)
		for i := 0; i < g.N; i++ {
			for _, j := range g.Neighbors(i) {
				a.Set(i, int(j), 1)
			}
		}
		g.adj = a
	})
	return g.adj
}

// DOG is the dynamic occlusion graph O^v = (V, E^v, T) of Definition 4: one
// static occlusion graph per time step, all for the same target user.
type DOG struct {
	Target int
	Frames []*StaticGraph
}

// T returns the maximal time label (len(Frames)-1).
func (d *DOG) T() int { return len(d.Frames) - 1 }

// At returns the static occlusion graph at time step t.
func (d *DOG) At(t int) *StaticGraph { return d.Frames[t] }

// BuildDOG converts a full trajectory trace into the target user's dynamic
// occlusion graph, one frame per recorded step. Frames are independent, so
// they are built concurrently on the parallel worker pool; the result is
// identical for any worker count. Each conversion is a `dog` span (rolled up
// into the span.dog phase histogram when obs is enabled).
func BuildDOG(target int, tr *crowd.Trajectories, radius float64) *DOG {
	sp := obs.Begin("dog")
	d := &DOG{Target: target, Frames: make([]*StaticGraph, tr.Steps())}
	parallel.ForEach(tr.Steps(), func(t int) {
		d.Frames[t] = BuildStatic(target, tr.Pos[t], radius)
	})
	sp.End()
	return d
}

// PresentSet returns which users exist on the target's viewport given the
// rendered set: rendered users always, plus — when the target is co-located
// (MR) — every other MR participant, whose physical body cannot be hidden
// (the hybrid-participation constraint of Sec. III-A).
func (g *StaticGraph) PresentSet(rendered []bool, interfaces []Interface) []bool {
	return g.PresentSetInto(make([]bool, g.N), rendered, interfaces)
}

// PresentSetInto is PresentSet writing into dst (length N), the
// allocation-free variant for hot scoring loops. It returns dst.
func (g *StaticGraph) PresentSetInto(dst, rendered []bool, interfaces []Interface) []bool {
	if len(rendered) != g.N || len(interfaces) != g.N || len(dst) != g.N {
		panic("occlusion: PresentSet length mismatch")
	}
	targetMR := interfaces[g.Target] == MR
	for w := 0; w < g.N; w++ {
		if w == g.Target {
			dst[w] = false
			continue
		}
		dst[w] = rendered[w] || (targetMR && interfaces[w] == MR)
	}
	return dst
}

// VisibleSet computes the indicator 1[v ⇒ w] for every user: w is visible
// exactly when it is rendered, present, and no other present user's image
// overlaps its own. The relation is symmetric — per Definition 4 an
// occlusion edge means the two *images* overlap on the viewport, so neither
// endpoint is seen clearly. This symmetry is what makes maximizing per-step
// utility exactly MWIS on the occlusion graph (Theorem 1). Physical MR
// bodies count as force-rendered for co-located targets, so an avatar drawn
// over (or under) a physical participant is ineffective too.
func (g *StaticGraph) VisibleSet(rendered []bool, interfaces []Interface) []bool {
	return g.VisibleSetInto(make([]bool, g.N), make([]bool, g.N), rendered, interfaces)
}

// VisibleSetInto is VisibleSet writing the indicator into dst and using
// present (both length N) as scratch for the intermediate present set —
// metrics.Score calls it once per user per step, and the fresh []bool pair
// the allocating variant creates dominated the scoring profile. It returns
// dst.
func (g *StaticGraph) VisibleSetInto(dst, present, rendered []bool, interfaces []Interface) []bool {
	if len(dst) != g.N || len(present) != g.N {
		panic("occlusion: VisibleSet scratch length mismatch")
	}
	g.PresentSetInto(present, rendered, interfaces)
	for w := 0; w < g.N; w++ {
		dst[w] = false
		if w == g.Target || !rendered[w] || !present[w] {
			continue
		}
		dst[w] = true
		for _, u := range g.Neighbors(w) {
			if present[u] {
				dst[w] = false
				break
			}
		}
	}
	return dst
}

// PhysicalMask returns MIA's hybrid-participation mask m_t: 0 for the target
// herself and for users whose image overlaps a co-located MR participant's
// physical body — rendering them can never be effective for an MR target
// (the forced physical image destroys the pair's clarity). For VR targets no
// one is physically present, so only the target is masked.
func (g *StaticGraph) PhysicalMask(interfaces []Interface) []float64 {
	if len(interfaces) != g.N {
		panic("occlusion: PhysicalMask length mismatch")
	}
	mask := make([]float64, g.N)
	targetMR := interfaces[g.Target] == MR
	for w := 0; w < g.N; w++ {
		if w == g.Target {
			continue
		}
		mask[w] = 1
		if !targetMR {
			continue
		}
		for _, u := range g.Neighbors(w) {
			if int(u) != g.Target && interfaces[u] == MR {
				mask[w] = 0
				break
			}
		}
	}
	return mask
}
