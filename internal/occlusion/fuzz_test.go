package occlusion

import (
	"encoding/binary"
	"slices"
	"testing"

	"after/internal/geom"
)

// decodeScene turns fuzz bytes into a converter input. Byte 0 picks the
// target, byte 1 the avatar radius (0.05–1.05 m) and byte 2 the grid
// resolution; every following 4 bytes are one user's X and Z as int16
// multiples of that resolution. A coarse grid (1/8 m) makes exact
// duplicates, users inside the target's avatar disk (full arcs) and users on
// the target's own row (bearing exactly 0, arcs straddling 0/2π) common; a
// fine grid (1/4096 m) makes near-co-located pairs that differ only in the
// last bits. It returns false when there are fewer than two users.
func decodeScene(data []byte) (target int, positions []geom.Vec2, radius float64, ok bool) {
	if len(data) < 3+2*4 {
		return 0, nil, 0, false
	}
	radius = 0.05 + float64(data[1])/255
	scale := 1.0 / float64(int(8)<<(data[2]%10))
	body := data[3:]
	n := min(len(body)/4, 256)
	positions = make([]geom.Vec2, n)
	for i := range positions {
		x := int16(binary.LittleEndian.Uint16(body[4*i:]))
		z := int16(binary.LittleEndian.Uint16(body[4*i+2:]))
		positions[i] = geom.Vec2{X: float64(x) * scale, Z: float64(z) * scale}
	}
	return int(data[0]) % n, positions, radius, true
}

// FuzzBuildStatic is the differential fuzzer of the sweep converter: on any
// decodable scene, BuildStatic must produce exactly the CSR arrays and edge
// count of the brute-force reference. The checked-in corpus under
// testdata/fuzz/FuzzBuildStatic replays on every plain `go test`.
func FuzzBuildStatic(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		target, positions, radius, ok := decodeScene(data)
		if !ok {
			return
		}
		sweep := BuildStatic(target, positions, radius)
		brute := BuildStaticBrute(target, positions, radius)
		if !slices.Equal(sweep.rowPtr, brute.rowPtr) || !slices.Equal(sweep.col, brute.col) {
			for w := 0; w < sweep.N; w++ {
				if a, b := sweep.Neighbors(w), brute.Neighbors(w); !slices.Equal(a, b) {
					t.Fatalf("target %d radius %v: user %d neighbors %v (sweep) vs %v (brute)",
						target, radius, w, a, b)
				}
			}
			t.Fatalf("CSR arrays differ: rowPtr %v vs %v", sweep.rowPtr, brute.rowPtr)
		}
		if sweep.EdgeCount() != brute.EdgeCount() {
			t.Fatalf("EdgeCount %d (sweep) vs %d (brute)", sweep.EdgeCount(), brute.EdgeCount())
		}
	})
}
