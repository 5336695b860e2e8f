package mwis

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"after/internal/geom"
)

// The reference solvers below are the original per-bit implementations of
// BranchAndBound, Greedy and LocalSearch, kept verbatim as the oracle of
// FuzzBranchAndBound: the word-parallel solvers must reproduce them exactly,
// including the number of search nodes.

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func greedyRef(p *Problem) []int {
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
			deg := 0
			p.adj[i].forEach(func(j int) {
				if remaining.has(j) {
					deg++
				}
			})
			score := p.weights[i] / float64(deg+1)
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

func localSearchRef(p *Problem, init []int) []int {
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
			if !conflictsRef(p, in, v) {
				in.set(v)
				improved = true
			}
		}
		// Swaps: replace one selected vertex with a heavier excluded vertex
		// whose only conflict is that vertex.
		for v := 0; v < p.n; v++ {
			if in.has(v) {
				continue
			}
			blocker := -1
			ok := true
			p.adj[v].forEach(func(j int) {
				if !in.has(j) {
					return
				}
				if blocker == -1 {
					blocker = j
				} else if blocker != j {
					ok = false
				}
			})
			if ok && blocker >= 0 && p.weights[v] > p.weights[blocker]+1e-15 {
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

func conflictsRef(p *Problem, in bitset, v int) bool {
	found := false
	p.adj[v].forEach(func(j int) {
		if in.has(j) {
			found = true
		}
	})
	return found
}

func branchAndBoundRef(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 10_000_000
	}
	// Seed the incumbent with greedy + local search so pruning bites early.
	incumbentSet := localSearchRef(p, greedyRef(p))
	incumbentW := p.SetWeight(incumbentSet)

	remaining := newBitset(p.n)
	for i := 0; i < p.n; i++ {
		if p.weights[i] > 0 {
			remaining.set(i)
		}
	}
	var current []int
	nodes := 0
	exhausted := true

	var rec func(rem bitset, acc float64)
	rec = func(rem bitset, acc float64) {
		if !exhausted {
			return
		}
		if nodes >= maxNodes {
			exhausted = false
			return
		}
		nodes++
		// Bound: current weight plus everything still available.
		ub := acc
		rem.forEach(func(i int) { ub += p.weights[i] })
		if ub <= incumbentW+1e-12 {
			return
		}
		// Pick the remaining vertex with the highest degree (within rem) to
		// branch on; break ties by weight.
		pick, pickDeg, pickW := -1, -1, 0.0
		rem.forEach(func(i int) {
			deg := 0
			p.adj[i].forEach(func(j int) {
				if rem.has(j) {
					deg++
				}
			})
			if deg > pickDeg || (deg == pickDeg && p.weights[i] > pickW) {
				pick, pickDeg, pickW = i, deg, p.weights[i]
			}
		})
		if pick < 0 {
			if acc > incumbentW {
				incumbentW = acc
				incumbentSet = append([]int(nil), current...)
			}
			return
		}
		// Branch 1: include pick.
		inclRem := rem.clone()
		inclRem.clear(pick)
		inclRem.andNot(p.adj[pick])
		current = append(current, pick)
		rec(inclRem, acc+p.weights[pick])
		current = current[:len(current)-1]
		// Branch 2: exclude pick.
		exclRem := rem.clone()
		exclRem.clear(pick)
		rec(exclRem, acc)
	}
	rec(remaining, 0)
	sort.Ints(incumbentSet)
	return Result{Set: incumbentSet, Weight: incumbentW, Optimal: exhausted, Nodes: nodes}
}

// fuzzBudgets are the node budgets FuzzBranchAndBound cycles through: from
// a search cut at the root, through mid-search truncations, to COMURNet's
// budget for large rooms.
var fuzzBudgets = []int{1, 7, 100, 5000, 60000}

// fuzzProblem builds a random instance on n ≤ 150 vertices from seed. The
// low bit of mode picks the weights: small integers (many zeros and ties)
// or uniform floats with a sprinkling of zero and negative weights. The
// next bit picks the edges: independent coin flips at the given density, or
// the intersection graph of random view arcs, the shape COMURNet solves.
func fuzzProblem(seed int64, n, density, mode uint8) *Problem {
	rng := rand.New(rand.NewSource(seed))
	size := int(n) % 151
	weights := make([]float64, size)
	for i := range weights {
		switch {
		case mode&1 == 0:
			weights[i] = float64(rng.Intn(4))
		case rng.Intn(8) == 0:
			weights[i] = 0
		case rng.Intn(16) == 0:
			weights[i] = -rng.Float64()
		default:
			weights[i] = rng.Float64()
		}
	}
	p := NewProblem(weights)
	if mode&2 == 0 {
		prob := float64(density) / 255
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < prob {
					p.AddEdge(i, j)
				}
			}
		}
		return p
	}
	maxWidth := 0.02 + 2*float64(density)/255
	arcs := make([]geom.Arc, size)
	for i := range arcs {
		arcs[i] = geom.NewArc(rng.Float64()*2*math.Pi, rng.Float64()*maxWidth)
		for j := 0; j < i; j++ {
			if arcs[i].Overlaps(arcs[j]) {
				p.AddEdge(i, j)
			}
		}
	}
	return p
}

// FuzzBranchAndBound is the differential fuzzer of the word-parallel
// solvers: on any instance and budget, BranchAndBound, Greedy and
// LocalSearch must return exactly what the reference implementations
// return — the whole Result, node count included. The checked-in corpus
// under testdata/fuzz/FuzzBranchAndBound replays on every plain `go test`.
func FuzzBranchAndBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, density, budget, mode uint8) {
		p := fuzzProblem(seed, n, density, mode)
		maxNodes := fuzzBudgets[int(budget)%len(fuzzBudgets)]
		greedy := Greedy(p)
		if want := greedyRef(p); !reflect.DeepEqual(greedy, want) {
			t.Fatalf("Greedy = %v, reference %v", greedy, want)
		}
		// LocalSearch also starts from an arbitrary, possibly dependent, set.
		var every3rd []int
		for v := int(mode>>2) % 3; v < p.N(); v += 3 {
			every3rd = append(every3rd, v)
		}
		for _, init := range [][]int{greedy, every3rd} {
			if got, want := LocalSearch(p, init), localSearchRef(p, init); !reflect.DeepEqual(got, want) {
				t.Fatalf("LocalSearch from %v = %v, reference %v", init, got, want)
			}
		}
		got, want := BranchAndBound(p, maxNodes), branchAndBoundRef(p, maxNodes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d budget %d: BranchAndBound = %+v, reference %+v", p.N(), maxNodes, got, want)
		}
		if !p.IsIndependent(got.Set) {
			t.Fatalf("dependent set %v", got.Set)
		}
	})
}
