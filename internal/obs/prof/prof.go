// Package prof is the repo's zero-dependency continuous-profiling layer: a
// pprof goroutine-label fabric that attributes CPU samples to the same
// (room, recommender, phase) coordinates the span tracer names, a windowed
// always-on CPU/heap profiler that folds those samples into per-label
// CPU-seconds, a runtime health collector riding runtime/metrics, and a stall
// watchdog that dumps incident bundles when a batch blows through a multiple
// of its deadline.
//
// Like obs and obs/quality, the package is opt-in-cheap: every label
// application is gated behind one package-level atomic flag, so with the flag
// off (the default) a Labels.Set call is a load-and-branch costing
// single-digit nanoseconds (enforced by TestProfDisabledOverheadBudget). With
// the flag on, Set swaps the goroutine's pprof label set to a context built
// once per (room, rec) pair — no allocation on the hot path.
//
// Label threading follows the tracer's carrier idiom: Go offers no API to
// read a goroutine's current pprof labels, so enclosing labels cannot be
// merged implicitly — instead sessions carry a *Labels handle (set via the
// structural Carrier interface, mirroring sim.TraceCarrier) and each phase
// switches to its precomputed context, restoring the enclosing phase on exit.
// Goroutines spawned under a label set inherit it (a Go runtime guarantee the
// parallel pool's fan-outs rely on; see TestForEachLabelInheritance).
package prof

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// enabled is the global label/profiling gate. Disabled (the default) turns
// every Labels.Set into a load-and-branch no-op.
var enabled atomic.Bool

// On reports whether profiling labels are enabled.
func On() bool { return enabled.Load() }

// SetEnabled flips the label gate and returns the previous state.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Phase identifies one stage of the POSHGNN serving/simulation path. The
// names match the span tracer's phase spans exactly, so a flamegraph keyed on
// the phase label and a Chrome trace keyed on span names tell the same story.
type Phase uint8

const (
	// PhaseNone carries only the room/rec labels — the ambient state between
	// model phases (queueing, scoring, bookkeeping).
	PhaseNone Phase = iota
	// PhaseBatch covers the fused multi-target batch step outside the four
	// model phases (gather/scatter, partitioning, sigmoid decode prep).
	PhaseBatch
	// PhaseMIA is multi-modal information aggregation with
	// hybrid-participation pruning: node features x̂_t, structural deltas
	// Δ_t and the mask m_t.
	PhaseMIA
	// PhasePDR is the partial-view de-occlusion recommender, the 2-layer GNN
	// producing r̃_t and h_t.
	PhasePDR
	// PhaseLWP is learning which to preserve: the 3-layer GNN producing σ
	// and the preservation gate.
	PhaseLWP
	// PhaseDecode is the greedy de-occlusion decode of r_t into the rendered
	// set.
	PhaseDecode
	// PhaseSpMM is the sparse matrix-multiply kernel inside LWP/PDR.
	PhaseSpMM
	numPhases
)

var phaseNames = [numPhases]string{"", "batch", "mia", "pdr", "lwp", "decode", "spmm"}

// String returns the pprof label value for the phase ("" for PhaseNone).
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return "?"
}

// Labels is one session's precomputed pprof label contexts: one
// context.Context per phase, all carrying the same room/rec pair. The zero
// value is unusable; use NewLabels. A nil *Labels no-ops on every method, so
// unlabelled paths (library users, sessions outside serving) pay only the
// nil check.
type Labels struct {
	room, rec string
	ctx       [numPhases]context.Context
}

// NewLabels builds the label set for one (room, recommender) pair. Either
// string may be empty, in which case that label key is omitted. The seven
// phase contexts are built eagerly — NewLabels is a per-session cost (a few
// small allocations), keeping per-phase Set allocation-free.
func NewLabels(room, rec string) *Labels {
	l := &Labels{room: room, rec: rec}
	for p := Phase(0); p < numPhases; p++ {
		kv := make([]string, 0, 6)
		if room != "" {
			kv = append(kv, "room", room)
		}
		if rec != "" {
			kv = append(kv, "rec", rec)
		}
		if name := phaseNames[p]; name != "" {
			kv = append(kv, "phase", name)
		}
		l.ctx[p] = pprof.WithLabels(context.Background(), pprof.Labels(kv...))
	}
	return l
}

// Room returns the room label ("" when unset).
func (l *Labels) Room() string {
	if l == nil {
		return ""
	}
	return l.room
}

// Rec returns the recommender label ("" when unset).
func (l *Labels) Rec() string {
	if l == nil {
		return ""
	}
	return l.rec
}

// Set switches the calling goroutine's pprof labels to the given phase
// (keeping the room/rec labels). No-op on a nil receiver or while the gate is
// off. The caller owns restoration: phases that nest must re-Set the
// enclosing phase on exit, because the runtime offers no way to read the
// current label set back.
func (l *Labels) Set(p Phase) {
	if l == nil || !enabled.Load() {
		return
	}
	if p >= numPhases {
		p = PhaseNone
	}
	pprof.SetGoroutineLabels(l.ctx[p])
}

// background is the empty label context Clear swaps in.
var background = context.Background()

// Clear strips all pprof labels from the calling goroutine. Gated like Set so
// disabled paths stay a load-and-branch.
func Clear() {
	if !enabled.Load() {
		return
	}
	pprof.SetGoroutineLabels(background)
}

// Carrier is implemented by session types that can carry a profiling label
// set across an API boundary (the batched stepper, the sequential POSHGNN
// session). Callers discover it structurally — the same pattern as
// sim.TraceCarrier — so wrappers (pacing, resilience) forward it without
// depending on concrete types.
type Carrier interface {
	SetProfLabels(l *Labels)
}
