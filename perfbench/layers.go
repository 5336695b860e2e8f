package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/resilience"
	"after/internal/sim"
)

// layerProbe wraps the serving primary from outside the program: it times
// every fused StepTargets pass (the core forward) and counts solo Step
// calls, recording only while on. It forwards everything else untouched, so
// outputs are identical with or without it.
type layerProbe struct {
	inner sim.BatchRecommender
	on    atomic.Bool
	solo  atomic.Int64

	mu     sync.Mutex
	passes []pass
}

// pass is one recorded fused forward: the room, the frame index it ran
// against, its distinct targets, and its wall time.
type pass struct {
	room    *dataset.Room
	t       int
	targets []int
	dur     time.Duration
}

func newLayerProbe(rec sim.Recommender) (*layerProbe, error) {
	br, ok := rec.(sim.BatchRecommender)
	if !ok {
		return nil, fmt.Errorf("primary %s has no fused batch path", rec.Name())
	}
	return &layerProbe{inner: br}, nil
}

func (p *layerProbe) Name() string { return p.inner.Name() }

func (p *layerProbe) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return probeStepper{p: p, inner: p.inner.StartEpisode(room, target)}
}

func (p *layerProbe) StartBatch(room *dataset.Room) sim.BatchStepper {
	return &probeBatch{p: p, room: room, inner: p.inner.StartBatch(room)}
}

// take returns and clears what was recorded since the last take.
func (p *layerProbe) take() ([]pass, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.passes
	p.passes = nil
	return out, p.solo.Swap(0)
}

type probeStepper struct {
	p     *layerProbe
	inner sim.Stepper
}

func (s probeStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	if s.p.on.Load() {
		s.p.solo.Add(1)
	}
	return s.inner.Step(t, frame)
}

type probeBatch struct {
	p     *layerProbe
	room  *dataset.Room
	inner sim.BatchStepper
}

func (b *probeBatch) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	if !b.p.on.Load() {
		return b.inner.StepTargets(t, targets, frames)
	}
	start := time.Now()
	out := b.inner.StepTargets(t, targets, frames)
	d := time.Since(start)
	b.p.mu.Lock()
	b.p.passes = append(b.p.passes, pass{room: b.room, t: t, targets: append([]int(nil), targets...), dur: d})
	b.p.mu.Unlock()
	return out
}

// coreStats reduces recorded passes to the core layer's numbers.
type coreStats struct {
	passes   int
	targets  int
	total    time.Duration
	p50, p99 float64 // pass wall time, ms
}

func summarizePasses(ps []pass) coreStats {
	s := coreStats{passes: len(ps)}
	durs := make([]float64, len(ps))
	for i, p := range ps {
		s.targets += len(p.targets)
		s.total += p.dur
		durs[i] = ms(p.dur)
	}
	sum := summarize(durs, 0)
	s.p50, s.p99 = sum.P50, sum.P99
	return s
}

// occlusionStats is the conversion layer measured by replay: the serving
// path converts one StaticGraph per distinct target per pass, from the
// positions of the frame the pass ran against.
type occlusionStats struct {
	usPerTarget    float64
	edgesPerTarget float64
	replayed       int
}

// replayOcclusion re-runs occlusion.BuildStatic on the recorded passes
// exactly as the micro-batcher does (fanned over the worker pool, one graph
// per target), sampling passes evenly until about maxTargets conversions.
// positions maps a pass to the frame positions the server converted.
func replayOcclusion(ps []pass, positions func(pass) []geom.Vec2, maxTargets int) occlusionStats {
	var all int
	for _, p := range ps {
		all += len(p.targets)
	}
	stride := 1
	if all > maxTargets {
		stride = (all + maxTargets - 1) / maxTargets
	}
	var s occlusionStats
	var wall time.Duration
	var edges int64
	for i := 0; i < len(ps); i += stride {
		p := ps[i]
		pos := positions(p)
		graphs := make([]*occlusion.StaticGraph, len(p.targets))
		start := time.Now()
		parallel.ForEach(len(p.targets), func(j int) {
			graphs[j] = occlusion.BuildStatic(p.targets[j], pos, p.room.AvatarRadius)
		})
		wall += time.Since(start)
		for _, g := range graphs {
			edges += int64(g.EdgeCount())
		}
		s.replayed += len(p.targets)
	}
	if s.replayed > 0 {
		s.usPerTarget = float64(wall) / float64(time.Microsecond) / float64(s.replayed)
		s.edgesPerTarget = float64(edges) / float64(s.replayed)
	}
	return s
}

// replaySanitize re-runs the ingestion sanitizer over the frames a phase
// sent, one sanitizer per room as the server keeps, and returns µs/frame.
func replaySanitize(rooms []*roomInput, sent []frameRef) float64 {
	if len(sent) == 0 {
		return 0
	}
	sans := make([]*resilience.Sanitizer, len(rooms))
	for i, rm := range rooms {
		sans[i] = resilience.NewSanitizer(rm.n)
	}
	start := time.Now()
	for _, f := range sent {
		sans[f.room].Sanitize(rooms[f.room].positionsAt(f.k))
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(len(sent))
}

// Registry readers: the program's own obs histograms are in nanoseconds.

func histMs(name string, q float64) float64 {
	return float64(obs.Default().Histogram(name).Quantile(q)) / 1e6
}

func histUs(name string, q float64) float64 {
	return float64(obs.Default().Histogram(name).Quantile(q)) / 1e3
}

func counter(name string) int64 { return obs.Default().Counter(name).Value() }

// heapLiveMB reads the runtime's live-heap size after the last GC.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
