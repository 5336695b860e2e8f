package occlusion

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"after/internal/geom"
)

// clusteredRoom places n users in a few tight groups inside a 12 m square,
// the density pattern (and edge count) of a social XR room.
func clusteredRoom(rng *rand.Rand, n int) []geom.Vec2 {
	centres := make([]geom.Vec2, 1+n/25)
	for i := range centres {
		centres[i] = geom.Vec2{X: rng.Float64()*12 - 6, Z: rng.Float64()*12 - 6}
	}
	pos := make([]geom.Vec2, n)
	for i := range pos {
		c := centres[rng.Intn(len(centres))]
		pos[i] = geom.Vec2{X: c.X + rng.NormFloat64()*0.8, Z: c.Z + rng.NormFloat64()*0.8}
	}
	return pos
}

// sameCSR reports the first difference between two graphs' CSR arrays.
func sameCSR(a, b *StaticGraph) error {
	if !slices.Equal(a.rowPtr, b.rowPtr) {
		return fmt.Errorf("rowPtr differs")
	}
	if !slices.Equal(a.col, b.col) {
		return fmt.Errorf("col differs")
	}
	if a.EdgeCount() != b.EdgeCount() {
		return fmt.Errorf("EdgeCount %d vs %d", a.EdgeCount(), b.EdgeCount())
	}
	return nil
}

// TestBuildStaticConcurrentMatchesBrute converts targets of the same frames
// from 8 goroutines at once, so pooled scratch buffers change hands between
// conversions of different room sizes; every result must still equal the
// brute-force reference. Run under -race it also checks that no two
// conversions ever share a scratch buffer.
func TestBuildStaticConcurrentMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := [][]geom.Vec2{clusteredRoom(rng, 180), clusteredRoom(rng, 61)}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				pos := frames[(w+k)%len(frames)]
				target := (w*31 + k*7) % len(pos)
				got := BuildStatic(target, pos, DefaultAvatarRadius)
				want := BuildStaticBrute(target, pos, DefaultAvatarRadius)
				if err := sameCSR(got, want); err != nil {
					errs <- fmt.Errorf("goroutine %d, N=%d target %d: %w", w, len(pos), target, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildStaticRetention guards the contract serving relies on when it
// keeps a frame's graphs alive across passes (the previous-frame pointer
// and the Δ-degree caches): a graph returned earlier is byte-for-byte
// unchanged after 100 later conversions of other targets and room sizes,
// so none of its arrays can alias a pooled buffer.
func TestBuildStaticRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	room := clusteredRoom(rng, 150)
	kept := BuildStatic(3, room, DefaultAvatarRadius)
	csr := kept.AdjacencyCSR()
	if &csr.RowPtr[0] != &kept.rowPtr[0] || &csr.Col[0] != &kept.col[0] {
		t.Fatal("AdjacencyCSR does not wrap the graph's own arrays")
	}
	rowPtr, col := slices.Clone(kept.rowPtr), slices.Clone(kept.col)
	arcs, dist := slices.Clone(kept.Arcs), slices.Clone(kept.Dist)

	others := [][]geom.Vec2{room, clusteredRoom(rng, 400), clusteredRoom(rng, 40)}
	for k := 0; k < 100; k++ {
		pos := others[k%len(others)]
		BuildStatic(k%len(pos), pos, DefaultAvatarRadius)
	}

	if !slices.Equal(kept.rowPtr, rowPtr) || !slices.Equal(kept.col, col) {
		t.Fatal("a retained graph's CSR arrays changed under later conversions")
	}
	if !slices.Equal(csr.RowPtr, rowPtr) || !slices.Equal(csr.Col, col) {
		t.Fatal("a retained graph's AdjacencyCSR changed under later conversions")
	}
	for w := range arcs {
		if math.Float64bits(kept.Arcs[w].Center) != math.Float64bits(arcs[w].Center) ||
			math.Float64bits(kept.Arcs[w].HalfWidth) != math.Float64bits(arcs[w].HalfWidth) ||
			math.Float64bits(kept.Dist[w]) != math.Float64bits(dist[w]) {
			t.Fatalf("user %d: arcs or distances changed under later conversions", w)
		}
	}
}
