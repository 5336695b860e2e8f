package core

import (
	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// oracleSession is the sequential reference the batched engine is pinned
// to: one target at a time, it steps the autodiff forward pass and decodes
// r_t with the model's decoder. With m.denseAdj set it runs the dense
// adjacency, the reference of the sparse-vs-dense tests.
type oracleSession struct {
	m            *POSHGNN
	room         *dataset.Room
	target       int
	prevFrame    *occlusion.StaticGraph
	prevR, prevH *tensor.Tensor
}

func newOracle(m *POSHGNN, room *dataset.Room, target int) *oracleSession {
	return &oracleSession{m: m, room: room, target: target}
}

// Step mirrors Session.Step.
func (s *oracleSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := s.m.forward(s.room, frame, s.prevFrame, s.prevR, s.prevH)
	s.prevFrame = frame
	s.prevR = tensor.Detach(out.r)
	s.prevH = tensor.Detach(out.h)
	return s.m.decode(out.r.Value, frame, s.target)
}

// Probabilities mirrors Session.Probabilities.
func (s *oracleSession) Probabilities() []float64 {
	if s.prevR == nil {
		return nil
	}
	return s.prevR.Value.Col(0)
}
