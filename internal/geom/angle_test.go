package geom

import (
	"math"
	"math/rand"
	"testing"
)

// modNormalizeAngle and modAngleDiff are the original math.Mod formulations
// of NormalizeAngle and AngleDiff, kept as the reference the Mod-free fast
// paths must reproduce bit for bit.
func modNormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

func modAngleDiff(a, b float64) float64 {
	d := math.Mod(b-a, 2*math.Pi)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return d
}

// angleEdgeCases lists the inputs where a Mod-free shortcut could plausibly
// diverge from the Mod formulation: signed zeros, ±π, ±2π and their float
// neighbours, values just past ±2π and far beyond, and the non-finite
// values.
func angleEdgeCases() []float64 {
	twoPi := 2 * math.Pi
	var out []float64
	for _, v := range []float64{0, math.Pi, twoPi, 3 * math.Pi, 4 * math.Pi, 1e6, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		for _, s := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			out = append(out, s, -s)
		}
	}
	return append(out, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1))
}

// TestAngleFastPathsBitIdentical pins NormalizeAngle and AngleDiff to the
// math.Mod formulations they replaced, comparing float bit patterns (so a
// sign-of-zero or NaN-payload difference would fail, not compare equal).
func TestAngleFastPathsBitIdentical(t *testing.T) {
	edges := angleEdgeCases()
	rng := rand.New(rand.NewSource(5))
	inputs := append([]float64(nil), edges...)
	for k := 0; k < 20000; k++ {
		var v float64
		switch k % 4 {
		case 0: // normalized centres and atan2 outputs
			v = rng.Float64()*4*math.Pi - 2*math.Pi
		case 1: // just around ±2π
			v = math.Copysign(2*math.Pi+rng.NormFloat64()*1e-12, rng.NormFloat64())
		case 2: // several turns out
			v = rng.NormFloat64() * 50
		default: // any magnitude
			v = math.Float64frombits(rng.Uint64())
		}
		inputs = append(inputs, v)
	}
	for _, a := range inputs {
		if got, want := NormalizeAngle(a), modNormalizeAngle(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v (%#x), Mod formulation %v (%#x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// AngleDiff: every edge case against every edge case, plus random pairs
	// drawn from the same mixed distribution.
	check := func(a, b float64) {
		if got, want := AngleDiff(a, b), modAngleDiff(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AngleDiff(%v, %v) = %v (%#x), Mod formulation %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	for k := 0; k+1 < len(inputs); k++ {
		check(inputs[k], inputs[k+1])
		check(inputs[len(inputs)-1-k], inputs[k])
	}
}
