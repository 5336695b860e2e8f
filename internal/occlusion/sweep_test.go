package occlusion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"after/internal/geom"
)

// graphsEqual reports whether two static graphs over the same users have the
// identical adjacency structure, returning a description of the first
// difference.
func graphsEqual(t *testing.T, a, b *StaticGraph) bool {
	t.Helper()
	if a.N != b.N {
		t.Errorf("N mismatch: %d vs %d", a.N, b.N)
		return false
	}
	for w := 0; w < a.N; w++ {
		na, nb := a.Neighbors(w), b.Neighbors(w)
		if len(na) != len(nb) {
			t.Errorf("user %d: %d neighbors (sweep) vs %d (brute)", w, len(na), len(nb))
			return false
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Errorf("user %d neighbor %d: %d (sweep) vs %d (brute)", w, k, na[k], nb[k])
				return false
			}
		}
	}
	return true
}

// TestSweepMatchesBruteProperty is the executable specification of the sweep
// converter: on random rooms of random size, density, and avatar radius, the
// endpoint-sort sweep must produce exactly the edge set of the O(N²)
// brute-force reference — wrap-around arcs (users straddling the ±π seam)
// and near-co-located users included.
func TestSweepMatchesBruteProperty(t *testing.T) {
	check := func(seed int64, users uint8, spreadRaw, radiusRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(users)%128 + 2
		// Spread in (0.5, 8.5] metres, radius in (0.05, 0.55] metres: the
		// small-spread/large-radius corner produces dense rooms full of
		// wide and full arcs, the opposite corner sparse thin arcs.
		spread := 0.5 + 8*clamp01(spreadRaw)
		radius := 0.05 + 0.5*clamp01(radiusRaw)
		positions := make([]geom.Vec2, n)
		for i := range positions {
			positions[i] = geom.Vec2{
				X: (rng.Float64()*2 - 1) * spread,
				Z: (rng.Float64()*2 - 1) * spread,
			}
		}
		// A few exact and near duplicates of existing users: co-located
		// pairs (distance ≈ 0 from each other, possibly from the target).
		for k := 0; k < n/8; k++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			jitter := geom.Vec2{X: rng.NormFloat64() * 1e-9, Z: rng.NormFloat64() * 1e-9}
			positions[dst] = positions[src].Add(jitter)
		}
		target := rng.Intn(n)
		sweep := BuildStatic(target, positions, radius)
		brute := BuildStaticBrute(target, positions, radius)
		return graphsEqual(t, sweep, brute)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMatchesBruteWrapAround pins the wrap-around case explicitly: a
// cluster of users behind the target (bearing ≈ π) whose arcs straddle the
// angle seam, where a naive linear interval sweep loses edges.
func TestSweepMatchesBruteWrapAround(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	positions := []geom.Vec2{{X: 0, Z: 0}} // target at the origin
	for i := 0; i < 40; i++ {
		// Users almost exactly behind the target: bearing π ± small.
		d := 0.5 + rng.Float64()*4
		theta := math.Pi + rng.NormFloat64()*0.05
		positions = append(positions, geom.Vec2{X: d * math.Cos(theta), Z: d * math.Sin(theta)})
	}
	sweep := BuildStatic(0, positions, DefaultAvatarRadius)
	brute := BuildStaticBrute(0, positions, DefaultAvatarRadius)
	if !graphsEqual(t, sweep, brute) {
		t.Fatal("wrap-around edge sets differ")
	}
	if sweep.EdgeCount() == 0 {
		t.Fatal("wrap-around scene should have edges")
	}
}

// TestSweepMatchesBruteCoLocated pins the co-located case: several users at
// exactly the target's position (full arcs) plus stacked duplicates away
// from it.
func TestSweepMatchesBruteCoLocated(t *testing.T) {
	positions := []geom.Vec2{
		{X: 0, Z: 0},        // target
		{X: 0, Z: 0},        // exactly on the target: full arc
		{X: 1e-12, Z: 0},    // vanishingly close: full arc
		{X: 2, Z: 0},        // a normal user ...
		{X: 2, Z: 0},        // ... duplicated exactly
		{X: 2, Z: 1e-12},    // ... and near-duplicated
		{X: -3, Z: 0.001},   // far side
		{X: -3, Z: -0.001},  // far side, co-located pair
		{X: 0.1, Z: 0.0001}, // just outside the avatar radius of the eye
	}
	sweep := BuildStatic(0, positions, DefaultAvatarRadius)
	brute := BuildStaticBrute(0, positions, DefaultAvatarRadius)
	if !graphsEqual(t, sweep, brute) {
		t.Fatal("co-located edge sets differ")
	}
	// The users on the target have full arcs and must neighbor everyone.
	for _, w := range []int{1, 2} {
		if got := len(sweep.Neighbors(w)); got != len(positions)-2 {
			t.Fatalf("full-arc user %d has %d neighbors, want %d", w, got, len(positions)-2)
		}
	}
}

// clamp01 folds testing/quick's arbitrary float64s (including NaN, ±Inf and
// huge magnitudes) into [0, 1) so the scene parameters stay sensible.
func clamp01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Abs(v)
	return v - math.Floor(v)
}

// TestSweepBandCandidates pins the rounding band of the sweep: pairs whose
// arcs miss each other by less than the candidate slack are candidates that
// must be rejected by the exact check, and pairs that touch within Overlaps'
// 1e-12 tolerance must be kept. Each case places user 2 at a bearing just
// past where user 1's arc ends and user 2's begins, from both sides of the
// 0/2π seam.
func TestSweepBandCandidates(t *testing.T) {
	const d = 3.0
	h := math.Asin(DefaultAvatarRadius / d)
	for _, base := range []float64{1, -h / 2} {
		for _, tc := range []struct {
			gap  float64
			edge bool
		}{
			{-1e-6, true},  // clearly overlapping: a sure candidate
			{-1e-13, true}, // overlapping by less than a rounding band
			{5e-13, true},  // apart, but within Overlaps' tolerance
			{5e-11, false}, // apart, inside the sweep's slack
			{1.5e-9, false},
		} {
			theta := base + 2*h + tc.gap
			positions := []geom.Vec2{
				{},
				{X: d * math.Cos(base), Z: d * math.Sin(base)},
				{X: d * math.Cos(theta), Z: d * math.Sin(theta)},
			}
			sweep := BuildStatic(0, positions, DefaultAvatarRadius)
			brute := BuildStaticBrute(0, positions, DefaultAvatarRadius)
			if !graphsEqual(t, sweep, brute) {
				t.Fatalf("base %v gap %v: sweep and brute differ", base, tc.gap)
			}
			if got := sweep.EdgeCount() == 1; got != tc.edge {
				t.Errorf("base %v gap %v: edge=%v, want %v", base, tc.gap, got, tc.edge)
			}
		}
	}
}
