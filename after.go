// Package after is the public API of the AFTER/POSHGNN reproduction: an
// implementation of "AFTER: Adaptive Friend Discovery for Temporal-spatial
// and Social-aware XR" (ICDE 2024).
//
// The AFTER problem asks, at every time step of a social XR
// videoconference, which surrounding users to render for a target user so
// that her accumulated satisfaction — a blend of personal preference and
// consecutive-step social presence, gated by view occlusion — is maximized.
// The problem is NP-hard (it embeds maximum-weight independent set on
// geometric intersection graphs), and the paper's answer is POSHGNN, a
// light temporal graph network that solves it approximately in real time.
//
// A minimal session looks like:
//
//	room, _ := after.GenerateRoom(after.DatasetConfig{Kind: after.SMM, Seed: 1})
//	model := after.NewPOSHGNN(after.DefaultModelConfig())
//	model.Train([]after.Episode{{Room: room, Target: 0}})
//	dog := after.BuildDOG(0, room.Traj, room.AvatarRadius)
//	sess := model.StartEpisode(room, 0)
//	for t, frame := range dog.Frames {
//		rendered := sess.Step(t, frame)
//		_ = rendered // rendered[w] == true ⇔ display user w
//	}
//
// Everything the paper's evaluation section reports can be regenerated via
// cmd/aftersim or the benchmark suite; see DESIGN.md for the experiment
// index.
package after

import (
	"after/internal/baselines"
	"after/internal/core"
	"after/internal/crowd"
	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/occlusion"
	"after/internal/sim"
	"after/internal/socialgraph"
	"after/internal/userstudy"
)

// Re-exported data types.
type (
	// Room is one generated XR-videoconferencing instance: social graph,
	// interests, interfaces, trajectories, and utility matrices.
	Room = dataset.Room
	// DatasetConfig controls synthetic room generation.
	DatasetConfig = dataset.Config
	// DatasetKind selects the emulated dataset (Timik, SMM, Hubs).
	DatasetKind = dataset.Kind
	// SocialGraph is an undirected weighted social network.
	SocialGraph = socialgraph.Graph
	// Interface is a user's immersiveness level (MR or VR).
	Interface = occlusion.Interface
	// StaticGraph is a single-instant occlusion graph for one target.
	StaticGraph = occlusion.StaticGraph
	// DOG is a dynamic occlusion graph (Definition 4).
	DOG = occlusion.DOG
	// Result carries the evaluation metrics of one episode or method.
	Result = metrics.Result
)

// Re-exported model and harness types.
type (
	// POSHGNN is the paper's proposed model.
	POSHGNN = core.POSHGNN
	// ModelConfig selects POSHGNN hyperparameters and ablation switches.
	ModelConfig = core.Config
	// Episode names one training trajectory (a room and a target user).
	Episode = core.Episode
	// Session is one POSHGNN inference episode: a single-target view over
	// the fused batched engine, carrying the recurrent state across steps.
	Session = core.Session
	// Recommender is any AFTER recommender runnable by the harness.
	Recommender = sim.Recommender
	// Stepper produces rendered sets for consecutive frames.
	Stepper = sim.Stepper
	// RecommenderFunc adapts a name and closure to Recommender.
	RecommenderFunc = sim.Func
	// Study is a simulated user study (Sec. V-C).
	Study = userstudy.Study
	// StudyConfig controls the simulated user study.
	StudyConfig = userstudy.Config
)

// Dataset kinds.
const (
	Timik = dataset.Timik
	SMM   = dataset.SMM
	Hubs  = dataset.Hubs
)

// Interface kinds.
const (
	VR = occlusion.VR
	MR = occlusion.MR
)

// DefaultAvatarRadius is the avatar disk radius used by the occlusion
// converter.
const DefaultAvatarRadius = occlusion.DefaultAvatarRadius

// GenerateRoom builds one synthetic conference room (see DatasetConfig for
// the per-kind defaults from the paper's setup).
func GenerateRoom(cfg DatasetConfig) (*Room, error) { return dataset.Generate(cfg) }

// GenerateRooms builds count rooms with decorrelated seeds, e.g. for a
// train/validation/test split.
func GenerateRooms(cfg DatasetConfig, count int) ([]*Room, error) {
	return dataset.GenerateRooms(cfg, count)
}

// LoadRoom reads a room saved with (*Room).Save.
func LoadRoom(path string) (*Room, error) { return dataset.Load(path) }

// NewPOSHGNN creates an untrained POSHGNN.
func NewPOSHGNN(cfg ModelConfig) *POSHGNN { return core.New(cfg) }

// DefaultModelConfig returns the paper's full POSHGNN configuration
// (MIA + PDR + LWP, hidden 8, β = 0.5).
func DefaultModelConfig() ModelConfig { return core.DefaultConfig() }

// Trajectories stores recorded positions (Pos[t][i] is user i's location at
// step t).
type Trajectories = crowd.Trajectories

// BuildDOG converts trajectories into the target user's dynamic occlusion
// graph, one frame per recorded step.
func BuildDOG(target int, traj *Trajectories, radius float64) *DOG {
	return occlusion.BuildDOG(target, traj, radius)
}

// Evaluate runs each recommender over the same targets in room and returns
// the mean metrics per recommender name.
func Evaluate(recs []Recommender, room *Room, targets []int, beta float64) (map[string]Result, error) {
	return sim.Evaluate(recs, room, targets, beta)
}

// DefaultTargets picks up to k spread-out target users for evaluation.
func DefaultTargets(room *Room, k int) []int { return sim.DefaultTargets(room, k) }

// AsRecommender packages a trained POSHGNN for Evaluate under name.
func AsRecommender(m *POSHGNN, name string) Recommender {
	return sim.Func{RecName: name, Start: func(r *Room, t int) Stepper {
		return m.StartEpisode(r, t)
	}}
}

// Baseline constructors (see the paper's Sec. V-A2 for what each emulates).
func NewRandomBaseline(k int, seed int64) Recommender { return baselines.Random{K: k, Seed: seed} }

// NewNearestBaseline renders the k nearest users each step.
func NewNearestBaseline(k int) Recommender { return baselines.Nearest{K: k} }

// NewRenderAll renders every surrounding user (the study's "Original").
func NewRenderAll() Recommender { return baselines.RenderAll{} }

// NewMvAGC builds the graph-filter grouping baseline.
func NewMvAGC(groups int, seed int64) Recommender {
	return baselines.MvAGC{Groups: groups, Seed: seed}
}

// NewGraFrank builds the BPR-trained personalized-ranking baseline.
func NewGraFrank(k int, seed int64) Recommender { return &baselines.GraFrank{K: k, Seed: seed} }

// NewCOMURNet builds the hard-constraint occlusion-free baseline. Lag
// emulates its multi-second per-step compute: pass -1 for the idealized
// infinitely fast solver.
func NewCOMURNet(k, lagSteps int, seed int64) Recommender {
	return baselines.COMURNet{K: k, LagSteps: lagSteps, Seed: seed}
}

// RunStudy simulates the paper's 48-participant user study with the given
// display methods.
func RunStudy(cfg StudyConfig, methods []Recommender) (*Study, error) {
	return userstudy.Run(cfg, methods)
}
