package exp

import (
	"fmt"
	"reflect"
	"testing"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/sim"
)

// TestEvaluateEpisodesTracesMatchSequential pins what lets the significance
// test reuse the table evaluation's traces instead of running episodes
// again: for every recommender of the comparison, each trace
// EvaluateEpisodes records (fused for POSHGNN, fanned out for the rest)
// equals a fresh sequential RunEpisodeTrace on the same DOG, at any worker
// bound. It also pins Evaluate to the mean folded from EvaluateEpisodes.
func TestEvaluateEpisodesTracesMatchSequential(t *testing.T) {
	recs, room, targets, err := comparisonSetup(dataset.Timik, quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 8} {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			var episodes [][]sim.EpisodeResult
			var dogs []*occlusion.DOG
			var means map[string]metrics.Result
			var err, evalErr error
			parallel.WithLimit(limit, func() {
				episodes, dogs, err = sim.EvaluateEpisodes(recs, room, targets, Beta)
				means, evalErr = sim.Evaluate(recs, room, targets, Beta)
			})
			if err != nil {
				t.Fatal(err)
			}
			if evalErr != nil {
				t.Fatal(evalErr)
			}
			for r, rec := range recs {
				results := make([]metrics.Result, len(dogs))
				for i, dog := range dogs {
					er := episodes[r][i]
					if er.Recommender != rec.Name() || er.Target != targets[i] {
						t.Fatalf("episodes[%d][%d] is %s on target %d, want %s on %d",
							r, i, er.Recommender, er.Target, rec.Name(), targets[i])
					}
					_, trace, err := sim.RunEpisodeTrace(rec, room, dog, Beta)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(er.Rendered, trace) {
						t.Errorf("%s target %d: recorded trace differs from a sequential run", rec.Name(), targets[i])
					}
					results[i] = er.Result
				}
				// StepTime is wall-clock; every other field must match.
				want, got := metrics.Mean(results), means[rec.Name()]
				want.StepTime, got.StepTime = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Evaluate %+v, mean of EvaluateEpisodes %+v", rec.Name(), got, want)
				}
			}
		})
	}
}
