package main

import (
	"fmt"
	"time"

	"after/internal/exp"
)

// wantTable2Digest is the digest of every non-timing cell of the canonical
// Table II (scale 0.3): each method's utility, preference, social presence,
// occlusion, rendered-set size, churn and robustness tallies, plus the notes.
const wantTable2Digest = "031003bab36a7c77229b1006c0923bf386ffac1094a02b7d89641b6ec855c571"

// table2Digest hashes a table's non-timing cells bit-exactly (StepTime, the
// Running Time row, is wall-clock and left out).
func table2Digest(t *exp.Table) string {
	d := newDigest().str(t.Name)
	for _, r := range t.Rows {
		d.str(r.Method).float(r.Utility).float(r.Preference).float(r.Social).
			float(r.OcclusionRate).float(r.RenderedMean).float(r.Churn).
			str(fmt.Sprintf("%+v", r.Robustness))
	}
	for _, n := range t.Notes {
		d.str(n)
	}
	return d.hex()
}

// runTable2 regenerates Table II exactly as `aftersim -exp table2` does and
// checks it: POSHGNN utility 59.80 and the bit-exact digest.
func runTable2(checks *checker) (time.Duration, error) {
	start := time.Now()
	t, err := exp.Table2(exp.Options{Scale: 0.3})
	wall := time.Since(start)
	if err != nil {
		return wall, fmt.Errorf("table2: %w", err)
	}
	if row := t.Row("POSHGNN"); row == nil {
		checks.fail("table2: no POSHGNN row")
	} else if got := fmt.Sprintf("%.2f", row.Utility); got != "59.80" {
		checks.fail("table2: POSHGNN utility %s, want 59.80", got)
	}
	if got := table2Digest(t); got != wantTable2Digest {
		checks.fail("table2: digest %s, want %s", got, wantTable2Digest)
	}
	return wall, nil
}
