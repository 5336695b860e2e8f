// Package sim is the experiment harness: it runs any AFTER recommender over
// a generated room, times every per-step decision, and scores the resulting
// rendering trace with the paper's metrics. All of Tables II–VII reduce to
// calls into this package.
package sim

import (
	"errors"
	"fmt"
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/occlusion"
	"after/internal/parallel"
)

// obsEpisodes counts completed episodes across the harness (obs-gated).
var obsEpisodes = obs.Default().Counter("sim.episodes")

// ErrEmptyEpisode is returned (wrapped) when an episode's DOG has zero
// frames: there is nothing to step, and the mean-step-time division would
// otherwise panic. Callers detect it with errors.Is.
var ErrEmptyEpisode = errors.New("sim: episode has no frames")

// Stepper produces the rendered set for consecutive time steps of one
// episode. Implementations carry whatever recurrent state they need.
type Stepper interface {
	// Step returns rendered (length room.N): rendered[w] = true ⇔ w is
	// displayed for the target at step t. Frames arrive in temporal order.
	Step(t int, frame *occlusion.StaticGraph) []bool
}

// Recommender is an AFTER recommender F_t(·) (Definition 1) packaged for the
// harness.
type Recommender interface {
	Name() string
	StartEpisode(room *dataset.Room, target int) Stepper
}

// Func adapts a name and a closure to the Recommender interface; used to
// plug in POSHGNN sessions and ad-hoc recommenders without new types.
type Func struct {
	RecName string
	Start   func(room *dataset.Room, target int) Stepper
}

// Name implements Recommender.
func (f Func) Name() string { return f.RecName }

// StartEpisode implements Recommender.
func (f Func) StartEpisode(room *dataset.Room, target int) Stepper {
	return f.Start(room, target)
}

// EpisodeResult pairs a recommender's metrics with its identity and the
// rendering trace they score.
type EpisodeResult struct {
	Recommender string
	Target      int
	metrics.Result
	// Rendered is the trace: Rendered[t][w] is true when w was displayed to
	// the target at step t.
	Rendered [][]bool
}

// RunEpisode drives rec through every frame of the target's DOG, timing each
// Step call, and scores the trace with β.
func RunEpisode(rec Recommender, room *dataset.Room, dog *occlusion.DOG, beta float64) (EpisodeResult, error) {
	res, _, err := RunEpisodeTrace(rec, room, dog, beta)
	return res, err
}

// RunEpisodeTrace is RunEpisode but also returns the raw rendering trace,
// for analyses that need per-step detail (significance tests, optimality
// gaps).
func RunEpisodeTrace(rec Recommender, room *dataset.Room, dog *occlusion.DOG, beta float64) (EpisodeResult, [][]bool, error) {
	if dog.Target < 0 || dog.Target >= room.N {
		return EpisodeResult{}, nil, fmt.Errorf("sim: target %d out of range", dog.Target)
	}
	if len(dog.Frames) == 0 {
		return EpisodeResult{}, nil, fmt.Errorf("%w (target %d)", ErrEmptyEpisode, dog.Target)
	}
	stepper := rec.StartEpisode(room, dog.Target)
	rendered := make([][]bool, len(dog.Frames))
	// Per-recommender step-latency histogram and per-step span: both vanish
	// (nil handle / empty span name never interned) when obs is off, so the
	// disabled loop stays allocation-free.
	var stepHist *obs.Histogram
	var spanName string
	if obs.On() {
		stepHist = obs.Default().Histogram(obs.Label("sim.step", "rec", rec.Name()))
		spanName = "step." + rec.Name()
	}
	// Continuous-profiling attribution: label this goroutine (and, through
	// prof.Carrier, the stepper's internal phase switches) with the episode's
	// (room, rec) pair for the duration of the loop. One load-and-branch when
	// profiling is off.
	if prof.On() {
		ls := prof.NewLabels(room.Name, rec.Name())
		if pc, ok := stepper.(prof.Carrier); ok {
			pc.SetProfLabels(ls)
		}
		ls.Set(prof.PhaseNone)
		defer prof.Clear()
	}
	var elapsed time.Duration
	for t, frame := range dog.Frames {
		sp := obs.Begin(spanName)
		start := time.Now()
		rendered[t] = stepper.Step(t, frame)
		d := time.Since(start)
		sp.End()
		elapsed += d
		stepHist.Observe(d)
	}
	obsEpisodes.Inc()
	res, err := metrics.Score(room, dog, rendered, beta)
	if err != nil {
		return EpisodeResult{}, nil, err
	}
	res.StepTime = elapsed / time.Duration(len(dog.Frames))
	// Quality telemetry observes the finished trace (attribution, oracle
	// regret, churn, drift detectors). Gated on quality.On() — two atomic
	// loads when disabled — and pure observation when enabled: it touches no
	// RNG and mutates nothing, so scores are bit-identical either way.
	if quality.On() {
		quality.Default().RecordEpisode(rec.Name(), room, dog, rendered, beta)
	}
	return EpisodeResult{Recommender: rec.Name(), Target: dog.Target, Result: res, Rendered: rendered}, rendered, nil
}

// Evaluate runs each recommender over the same targets in room and returns,
// per recommender, the mean result across targets: the Means of
// EvaluateEpisodes.
func Evaluate(recs []Recommender, room *dataset.Room, targets []int, beta float64) (map[string]metrics.Result, error) {
	episodes, _, err := EvaluateEpisodes(recs, room, targets, beta)
	if err != nil {
		return nil, err
	}
	return Means(recs, episodes), nil
}

// EvaluateEpisodes runs each recommender over the same targets in room and
// returns every episode, traces included: episodes[r][i] is recs[r] on
// targets[i], scored on dogs[i]. Targets outside [0, N) are rejected. The
// DOG for each target is built once and shared across recommenders so
// everyone sees the identical scene.
//
// Episodes fan out over the parallel worker pool: every (recommender,
// target) pair is an independent unit of work writing into its own result
// slot. Recommenders therefore must hand out independent Steppers from
// concurrent StartEpisode calls and must not derive episode randomness from
// shared mutable RNG state — every built-in recommender seeds its episode
// RNG from (base seed, target), which keeps results and traces bit-identical
// to a sequential run regardless of scheduling (see TestEvaluateDeterminism).
// Only StepTime varies between runs; it measures wall-clock.
//
// A recommender that also implements BatchRecommender is run through one
// fused RunBatchedEpisodes call over all targets instead of the per-target
// fan-out. The batched forward pass is pinned output-identical to the
// sequential one (float64 path, see internal/core's batch tests), so scores
// and traces do not depend on which route a recommender takes; only
// StepTime reflects the amortization.
func EvaluateEpisodes(recs []Recommender, room *dataset.Room, targets []int, beta float64) ([][]EpisodeResult, []*occlusion.DOG, error) {
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("sim: no targets")
	}
	dogs := make([]*occlusion.DOG, len(targets))
	for _, target := range targets {
		if target < 0 || target >= room.N {
			return nil, nil, fmt.Errorf("sim: target %d out of range", target)
		}
	}
	// Each BuildDOG already fans its frames out over the pool; distributing
	// the targets too keeps the workers fed when episodes are short.
	parallel.ForEach(len(targets), func(i int) {
		dogs[i] = occlusion.BuildDOG(targets[i], room.Traj, room.AvatarRadius)
	})
	episodes := make([][]EpisodeResult, len(recs))
	// Batch-capable recommenders run fused first — one StepTargets per frame
	// over the whole target set — then the rest fan out per episode.
	for r, rec := range recs {
		br, ok := rec.(BatchRecommender)
		if !ok {
			episodes[r] = make([]EpisodeResult, len(targets))
			continue
		}
		ers, err := RunBatchedEpisodes(br, room, dogs, beta)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: %s batched: %w", rec.Name(), err)
		}
		episodes[r] = ers
	}
	// Flatten (recommender, target) pairs row-major so the lowest-index
	// error reported by ForEachErr is exactly the error a sequential
	// recs-outer/targets-inner loop would have hit first.
	err := parallel.ForEachErr(len(recs)*len(targets), func(k int) error {
		r, i := k/len(targets), k%len(targets)
		if _, ok := recs[r].(BatchRecommender); ok {
			return nil
		}
		er, err := RunEpisode(recs[r], room, dogs[i], beta)
		if err != nil {
			return fmt.Errorf("sim: %s on target %d: %w", recs[r].Name(), targets[i], err)
		}
		episodes[r][i] = er
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return episodes, dogs, nil
}

// Means folds EvaluateEpisodes output into each recommender's mean result
// across its episodes, keyed by name and folded in target order.
func Means(recs []Recommender, episodes [][]EpisodeResult) map[string]metrics.Result {
	out := make(map[string]metrics.Result, len(recs))
	var results []metrics.Result
	for r, rec := range recs {
		results = results[:0]
		for _, er := range episodes[r] {
			results = append(results, er.Result)
		}
		out[rec.Name()] = metrics.Mean(results)
	}
	return out
}

// DefaultTargets picks up to k well-spread target users for evaluation: the
// harness follows several targets and averages, since single-target traces
// are noisy.
func DefaultTargets(room *dataset.Room, k int) []int {
	if k <= 0 || k > room.N {
		k = 1
	}
	targets := make([]int, 0, k)
	stride := room.N / k
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < room.N && len(targets) < k; i += stride {
		targets = append(targets, i)
	}
	return targets
}
