// Package mwis solves Maximum Weighted Independent Set problems on occlusion
// graphs (Definition 5). The AFTER problem reduces from MWIS on geometric
// intersection graphs (Theorem 1), so MWIS solvers serve two roles here:
//
//   - the hard-constraint COMURNet stand-in, which must find a maximum-
//     preference, strictly occlusion-free rendering set each step; and
//   - an upper-bound oracle used by tests and benchmarks to quantify how
//     close learned recommenders come to optimal single-step quality.
//
// The exact solver is branch and bound over bitsets with a remaining-weight
// bound; it is intentionally exponential in the worst case (that is the
// point of the paper's practicality argument) but accepts a node budget so
// callers keep control of wall-clock time.
package mwis

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Problem is an undirected vertex-weighted graph.
type Problem struct {
	n       int
	weights []float64
	adj     []bitset
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// andCount returns |b ∩ o|.
func (b bitset) andCount(o bitset) int {
	total := 0
	for k, w := range b {
		total += bits.OnesCount64(w & o[k])
	}
	return total
}

// firstCommon returns the smallest element of b ∩ o, or -1 if there is none.
func (b bitset) firstCommon(o bitset) int {
	for k, w := range b {
		if c := w & o[k]; c != 0 {
			return k*64 + bits.TrailingZeros64(c)
		}
	}
	return -1
}

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// forEach calls f for every set bit in ascending order.
func (b bitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			f(i)
			w &= w - 1
		}
	}
}

// NewProblem creates an edgeless problem on n vertices with the given
// weights (length must be n).
func NewProblem(weights []float64) *Problem {
	n := len(weights)
	p := &Problem{n: n, weights: append([]float64(nil), weights...), adj: make([]bitset, n)}
	for i := range p.adj {
		p.adj[i] = newBitset(n)
	}
	return p
}

// N returns the vertex count.
func (p *Problem) N() int { return p.n }

// Weight returns the weight of vertex i.
func (p *Problem) Weight(i int) float64 { return p.weights[i] }

// AddEdge inserts the undirected edge {i, j}; self-loops are ignored.
func (p *Problem) AddEdge(i, j int) {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		panic(fmt.Sprintf("mwis: edge (%d,%d) out of range", i, j))
	}
	if i == j {
		return
	}
	p.adj[i].set(j)
	p.adj[j].set(i)
}

// HasEdge reports whether {i, j} is an edge.
func (p *Problem) HasEdge(i, j int) bool { return p.adj[i].has(j) }

// Degree returns the degree of vertex i.
func (p *Problem) Degree(i int) int { return p.adj[i].count() }

// IsIndependent reports whether set contains no adjacent pair.
func (p *Problem) IsIndependent(set []int) bool {
	for a := 0; a < len(set); a++ {
		for b := a + 1; b < len(set); b++ {
			if p.HasEdge(set[a], set[b]) {
				return false
			}
		}
	}
	return true
}

// SetWeight returns the total weight of set.
func (p *Problem) SetWeight(set []int) float64 {
	s := 0.0
	for _, v := range set {
		s += p.weights[v]
	}
	return s
}

// Greedy returns an independent set built by repeatedly taking the vertex
// maximizing weight/(degree+1) among the remaining graph — the classic
// approximation that performs well on sparse circular-arc graphs.
func Greedy(p *Problem) []int {
	remaining := newBitset(p.n)
	for i := 0; i < p.n; i++ {
		if p.weights[i] > 0 {
			remaining.set(i)
		}
	}
	var out []int
	for {
		best, bestScore := -1, math.Inf(-1)
		remaining.forEach(func(i int) {
			// Degree within the remaining graph.
			score := p.weights[i] / float64(p.adj[i].andCount(remaining)+1)
			if score > bestScore {
				best, bestScore = i, score
			}
		})
		if best < 0 {
			break
		}
		out = append(out, best)
		remaining.clear(best)
		remaining.andNot(p.adj[best])
	}
	sort.Ints(out)
	return out
}

// LocalSearch improves an independent set with single-vertex additions and
// 1-out/1-in swaps until no improving move exists. The result is maximal
// and at least as heavy as init.
func LocalSearch(p *Problem, init []int) []int {
	in := newBitset(p.n)
	for _, v := range init {
		in.set(v)
	}
	improved := true
	for improved {
		improved = false
		// Additions: any vertex with no selected neighbor and positive weight.
		for v := 0; v < p.n; v++ {
			if in.has(v) || p.weights[v] <= 0 {
				continue
			}
			if p.adj[v].andCount(in) == 0 {
				in.set(v)
				improved = true
			}
		}
		// Swaps: replace one selected vertex with a heavier excluded vertex
		// whose only conflict is that vertex.
		for v := 0; v < p.n; v++ {
			if in.has(v) || p.adj[v].andCount(in) != 1 {
				continue
			}
			blocker := p.adj[v].firstCommon(in)
			if p.weights[v] > p.weights[blocker]+1e-15 {
				in.clear(blocker)
				in.set(v)
				improved = true
			}
		}
	}
	var out []int
	in.forEach(func(i int) { out = append(out, i) })
	return out
}

// Result carries an exact-solver outcome.
type Result struct {
	Set []int
	// Weight is the total weight of Set.
	Weight float64
	// Optimal is true when the search space was exhausted within the node
	// budget; false means Set is the best incumbent found so far.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// BranchAndBound finds a maximum-weight independent set. maxNodes bounds the
// number of explored search nodes (≤0 means 1e7); when the budget is hit the
// incumbent is returned with Optimal=false. The search is exact and, by
// design, exponential in the worst case: it is the "effective but
// unpractical" extreme of the paper's C2 dilemma.
func BranchAndBound(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 10_000_000
	}
	// Seed the incumbent with greedy + local search so pruning bites early.
	incumbentSet := LocalSearch(p, Greedy(p))
	words := (p.n + 63) / 64
	s := &search{
		p:         p,
		words:     words,
		maxNodes:  maxNodes,
		exhausted: true,
		bestSet:   incumbentSet,
		bestW:     p.SetWeight(incumbentSet),
		current:   make([]int, 0, p.n),
		// Every branch removes its pick from the remaining set, so the
		// recursion is at most n+1 levels deep: one scratch set per level.
		slab: make([]uint64, (p.n+1)*words),
	}
	remaining := s.level(0)
	for i := 0; i < p.n; i++ {
		if p.weights[i] > 0 {
			remaining.set(i)
		}
	}
	s.branch(0, 0)
	sort.Ints(s.bestSet)
	return Result{Set: s.bestSet, Weight: s.bestW, Optimal: s.exhausted, Nodes: s.nodes}
}

// search is one BranchAndBound call's state. slab holds the remaining-vertex
// set of every recursion level back to back; level d's set is owned by the
// node currently at depth d.
type search struct {
	p         *Problem
	words     int
	slab      []uint64
	current   []int
	bestSet   []int
	bestW     float64
	nodes     int
	maxNodes  int
	exhausted bool
}

func (s *search) level(d int) bitset {
	return bitset(s.slab[d*s.words : (d+1)*s.words : (d+1)*s.words])
}

// branch explores the node whose remaining vertices are level(depth) and
// whose chosen vertices (s.current) weigh acc.
func (s *search) branch(depth int, acc float64) {
	if !s.exhausted {
		return
	}
	if s.nodes >= s.maxNodes {
		s.exhausted = false
		return
	}
	s.nodes++
	rem := s.level(depth)
	w := s.p.weights
	// Bound: current weight plus everything still available, summed in
	// ascending vertex order.
	ub := acc
	for k, word := range rem {
		for word != 0 {
			ub += w[k*64+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	if ub <= s.bestW+1e-12 {
		return
	}
	// Pick the remaining vertex with the highest degree (within rem) to
	// branch on; break ties by weight, then by lowest index.
	pick, pickDeg, pickW := -1, -1, 0.0
	for k, word := range rem {
		for word != 0 {
			i := k*64 + bits.TrailingZeros64(word)
			word &= word - 1
			deg := s.p.adj[i].andCount(rem)
			if deg > pickDeg || (deg == pickDeg && w[i] > pickW) {
				pick, pickDeg, pickW = i, deg, w[i]
			}
		}
	}
	if pick < 0 {
		if acc > s.bestW {
			s.bestW = acc
			s.bestSet = append([]int(nil), s.current...)
		}
		return
	}
	// Branch 1: include pick.
	child := s.level(depth + 1)
	adj := s.p.adj[pick]
	for k := range child {
		child[k] = rem[k] &^ adj[k]
	}
	child.clear(pick)
	s.current = append(s.current, pick)
	s.branch(depth+1, acc+w[pick])
	s.current = s.current[:len(s.current)-1]
	// Branch 2: exclude pick. The include subtree is finished with the
	// child level, so it is rebuilt in place.
	copy(child, rem)
	child.clear(pick)
	s.branch(depth+1, acc)
}
