// Package geom provides the low-level geometric primitives used throughout
// the AFTER reproduction: 2-D and 3-D Euclidean vectors and angular
// arithmetic on the unit view circle.
//
// The occlusion model of the paper (Sec. III-B) works in a "flat" social XR
// space: positions live in the y=0 plane, and a target user's 360-degree
// view is the unit circle of azimuths around her. Package geom therefore
// centres on Vec2 operations plus circular arcs (see arc.go); Vec3 exists so
// trajectories can carry the full W = R^3 coordinates from Definition 3.
package geom

import "math"

// Vec2 is a point or displacement in the horizontal plane of the social XR
// space.
type Vec2 struct {
	X, Z float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Z*w.Z }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Z) }

// LenSq returns the squared Euclidean norm of v, avoiding a sqrt.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Z*v.Z }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).LenSq() }

// Normalize returns the unit vector in the direction of v. The zero vector
// normalizes to itself so callers need not special-case stationary agents.
func (v Vec2) Normalize() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return v.Scale(1 / l)
}

// Azimuth returns the angle of v in radians, normalized to [0, 2π).
func (v Vec2) Azimuth() float64 { return NormalizeAngle(math.Atan2(v.Z, v.X)) }

// Perp returns v rotated by +90 degrees.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Z, v.X} }

// Rotate returns v rotated counter-clockwise by theta radians.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{v.X*c - v.Z*s, v.X*s + v.Z*c}
}

// Lerp returns the linear interpolation between v and w at parameter t
// (t=0 yields v, t=1 yields w).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Z + (w.Z-v.Z)*t}
}

// Vec3 is a point in the full 3-D social XR space W from Definition 3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Flat returns the projection of v onto the horizontal plane, which is what
// the flat-world occlusion converter of Sec. III-B consumes.
func (v Vec3) Flat() Vec2 { return Vec2{v.X, v.Z} }

// FromFlat lifts a planar point into W at height y.
func FromFlat(v Vec2, y float64) Vec3 { return Vec3{v.X, y, v.Z} }

// twoPi is 2π rounded to float64, the modulus of every angle helper.
const twoPi = 2 * math.Pi

// NormalizeAngle maps any angle in radians into [0, 2π).
//
// For a in (−2π, 2π), math.Mod(a, 2π) is exactly a (the remainder of a
// dividend smaller than the divisor is the dividend itself), so the fast
// path skips the Mod call and returns the bit-identical result; every other
// input, NaN and ±Inf included, falls through to the Mod formulation.
func NormalizeAngle(a float64) float64 {
	if !(a > -twoPi && a < twoPi) {
		a = math.Mod(a, twoPi)
	}
	if a < 0 {
		a += twoPi
	}
	return a
}

// AngleDiff returns the signed smallest rotation from a to b, in (-π, π].
//
// As in NormalizeAngle, math.Mod is the identity when |b−a| < 2π — always
// the case for two normalized angles or atan2 outputs — so it is only
// called outside that range (and for NaN/±Inf), keeping the result
// bit-identical to the Mod formulation.
func AngleDiff(a, b float64) float64 {
	d := b - a
	if !(d > -twoPi && d < twoPi) {
		d = math.Mod(d, twoPi)
	}
	switch {
	case d > math.Pi:
		d -= twoPi
	case d <= -math.Pi:
		d += twoPi
	}
	return d
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
