package sim

import (
	"fmt"
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/occlusion"
)

// BatchStepper steps many targets of one room through a single fused forward
// pass per frame. targets[i] pairs with frames[i] (that target's static graph
// at step t); the returned slice has one rendered set per input, in order.
// The membership of the batch may change between calls — per-target recurrent
// state follows the target, not its batch position.
type BatchStepper interface {
	StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool
}

// TraceCarrier is the optional trace-propagation capability: a stepper (or a
// wrapper around one) that can parent its internal spans under a caller's
// span. The serve micro-batcher sets its batch span as the parent before
// each fused pass so the core forward's phase spans hang off the request
// trace. Wrappers that delegate StepTargets must forward this too, or the
// chain breaks at the wrapper — and the same goes for prof.Carrier, the
// profiling twin of this interface (continuous-profiler label threading).
type TraceCarrier interface {
	SetTraceParent(parent obs.SpanID)
}

// BatchRecommender is a Recommender whose model can serve a whole room at
// once: StartBatch returns one shared session that amortizes the per-room
// portion of the forward pass (aggregation, message passing) across every
// target in the batch. StepTargets for a single target must be
// output-identical to the Stepper from StartEpisode — the harness, the serve
// path, and the property tests all rely on batch width being invisible in
// the output.
type BatchRecommender interface {
	Recommender
	StartBatch(room *dataset.Room) BatchStepper
}

// RunBatchedEpisodes drives every dog through one fused batch session and
// scores each target's trace, returning results in dog order. All dogs must
// come from the same trajectory (equal frame counts). The per-step obs
// histogram for the recommender observes the amortized per-target latency
// (fused wall time ÷ batch width) so sequential and batched runs chart on
// the same scale, and StepTime in each result is that same amortized mean.
func RunBatchedEpisodes(rec BatchRecommender, room *dataset.Room, dogs []*occlusion.DOG, beta float64) ([]EpisodeResult, error) {
	if len(dogs) == 0 {
		return nil, fmt.Errorf("sim: batched run with no episodes")
	}
	steps := len(dogs[0].Frames)
	if steps == 0 {
		return nil, fmt.Errorf("%w (target %d)", ErrEmptyEpisode, dogs[0].Target)
	}
	targets := make([]int, len(dogs))
	for i, dog := range dogs {
		if dog.Target < 0 || dog.Target >= room.N {
			return nil, fmt.Errorf("sim: target %d out of range", dog.Target)
		}
		if len(dog.Frames) != steps {
			return nil, fmt.Errorf("sim: batched episodes disagree on length (%d vs %d frames)", len(dog.Frames), steps)
		}
		targets[i] = dog.Target
	}
	stepper := rec.StartBatch(room)
	rendered := make([][][]bool, len(dogs))
	for i := range rendered {
		rendered[i] = make([][]bool, steps)
	}
	var stepHist *obs.Histogram
	var spanName string
	if obs.On() {
		stepHist = obs.Default().Histogram(obs.Label("sim.step", "rec", rec.Name()))
		spanName = "step." + rec.Name()
	}
	// Label the fused loop for the continuous profiler (see RunEpisodeTrace).
	if prof.On() {
		ls := prof.NewLabels(room.Name, rec.Name())
		if pc, ok := stepper.(prof.Carrier); ok {
			pc.SetProfLabels(ls)
		}
		ls.Set(prof.PhaseNone)
		defer prof.Clear()
	}
	frames := make([]*occlusion.StaticGraph, len(dogs))
	var elapsed time.Duration
	for t := 0; t < steps; t++ {
		for i, dog := range dogs {
			frames[i] = dog.Frames[t]
		}
		sp := obs.Begin(spanName)
		start := time.Now()
		out := stepper.StepTargets(t, targets, frames)
		d := time.Since(start)
		sp.End()
		elapsed += d
		stepHist.Observe(d / time.Duration(len(dogs)))
		for i := range dogs {
			rendered[i][t] = out[i]
		}
	}
	perTarget := elapsed / time.Duration(steps*len(dogs))
	out := make([]EpisodeResult, len(dogs))
	for i, dog := range dogs {
		res, err := metrics.Score(room, dog, rendered[i], beta)
		if err != nil {
			return nil, err
		}
		res.StepTime = perTarget
		if quality.On() {
			quality.Default().RecordEpisode(rec.Name(), room, dog, rendered[i], beta)
		}
		out[i] = EpisodeResult{Recommender: rec.Name(), Target: dog.Target, Result: res, Rendered: rendered[i]}
		obsEpisodes.Inc()
	}
	return out, nil
}
