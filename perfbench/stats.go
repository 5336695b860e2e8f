package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is an anecdote, not a statistic.
const minBeyond = 10

// miss is the latency of a request that never produced a good answer (shed,
// expired, errored, stale or never dispatched). It sorts above every real
// latency, so it counts as missing any limit.
var miss = math.Inf(1)

// quantile is a nearest-rank percentile over ascending-sorted samples: the
// value at rank ceil(q·n). It also returns how many samples lie strictly past
// that rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// latencySummary is a latency distribution reduced to the numbers the
// benchmark reports, with the evidence behind them.
type latencySummary struct {
	Samples int
	Misses  int
	P50     float64
	P99     float64
	P95     float64
	// P99Supported is false when fewer than minBeyond samples lie past p99.
	P99Supported bool
}

// summarize sorts samples (misses as +Inf) and reads p50, p95 and p99. A
// percentile that lands on a miss is reported as missCost, the caller's
// stand-in for "no good answer within the measurement window".
func summarize(samples []float64, missCost float64) latencySummary {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s := latencySummary{Samples: len(sorted)}
	for i := len(sorted) - 1; i >= 0 && math.IsInf(sorted[i], 1); i-- {
		s.Misses++
	}
	var beyond int
	s.P50, _ = quantile(sorted, 0.50)
	s.P95, _ = quantile(sorted, 0.95)
	s.P99, beyond = quantile(sorted, 0.99)
	s.P99Supported = beyond >= minBeyond
	for _, p := range []*float64{&s.P50, &s.P95, &s.P99} {
		if math.IsInf(*p, 1) {
			*p = missCost
		}
	}
	return s
}

// missCostMs stands in for the latency of a percentile that falls on a missed
// request: twice the limit, so a miss always reads as beyond it.
const missCostMs = 2 * latencyLimitMs

// median is the nearest-rank median; NaN when v is empty.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m, _ := quantile(s, 0.5)
	return m
}

// midMean is the mean of the middle half of v: the values from the first to
// the third quartile by rank, with n/4 values dropped at each end. Like a
// median it ignores the few windows a stall falls in; unlike one it averages
// over half the windows. NaN when v is empty.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// windowQuantiles splits [0, dur) into whole windows of win and returns the
// q-quantile of the samples due in each window that has any (a miss reads
// missCostMs). A stall of a few tens of milliseconds moves only the window
// it falls in.
func windowQuantiles(due []time.Duration, samples []float64, dur, win time.Duration, q float64) []float64 {
	n := int(dur / win)
	if n < 1 {
		n = 1
	}
	byWin := make([][]float64, n)
	for i, t := range due {
		if w := int(t / win); t >= 0 && w < n {
			byWin[w] = append(byWin[w], samples[i])
		}
	}
	var perWin []float64
	for _, w := range byWin {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		v, _ := quantile(w, q)
		if math.IsInf(v, 1) {
			v = missCostMs
		}
		perWin = append(perWin, v)
	}
	return perWin
}

// windowRates splits [0, dur) into whole windows of win and returns each
// window's count of events (offsets from the phase start) per second. Events
// at or past the last whole window are not counted.
func windowRates(at []time.Duration, dur, win time.Duration) []float64 {
	n := int(dur / win)
	if n < 1 {
		return nil
	}
	rates := make([]float64, n)
	for _, t := range at {
		if i := int(t / win); t >= 0 && i < n {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= win.Seconds()
	}
	return rates
}

// outcome classifies one recommendation request as the client saw it.
type outcome uint8

const (
	outGood         outcome = iota // 200, fresh, valid rendered set
	outStale                       // 200 but fresh:false (hold-state degradation)
	outShedRoom                    // 429 room queue full
	outShedGlobal                  // 503 global overload or draining
	outExpired                     // 503 deadline expired in the room queue
	outError                       // any other status
	outUndispatched                // the generator could not send it
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"good", "stale", "shed_429", "shed_503", "expired", "error", "undispatched"}

func (o outcome) String() string { return outcomeNames[o] }

// opCounts is the sent/succeeded/failed tally of one phase, with the failure
// reasons broken out. Requests that succeeded but took longer than the
// latency limit are counted in Late (they are not failures, but they miss
// the goodput limit).
type opCounts struct {
	Sent   int
	Late   int
	ByKind [numOutcomes]int
}

func (c *opCounts) add(o outcome, latencyMs, limitMs float64) {
	c.Sent++
	c.ByKind[o]++
	if o == outGood && latencyMs > limitMs {
		c.Late++
	}
}

func (c *opCounts) merge(o opCounts) {
	c.Sent += o.Sent
	c.Late += o.Late
	for i := range c.ByKind {
		c.ByKind[i] += o.ByKind[i]
	}
}

// Succeeded counts good answers, late or not.
func (c opCounts) Succeeded() int { return c.ByKind[outGood] }

// Failed counts every request that produced no good answer.
func (c opCounts) Failed() int { return c.Sent - c.ByKind[outGood] }

// latencyOf is the sample a request contributes to a latency distribution:
// its measured latency when it succeeded, a miss otherwise.
func latencyOf(o outcome, latencyMs float64) float64 {
	if o != outGood {
		return miss
	}
	return latencyMs
}

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate arrivals per second over [0, dur), drawn from seed alone.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// digest is an order-sensitive SHA-256 over typed values; floats are hashed
// by their bits, so two digests agree only on bit-identical outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) *digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
	return d
}

func (d *digest) float(v float64) *digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
	return d
}

func (d *digest) str(s string) *digest {
	d.int(len(s))
	d.h.Write([]byte(s))
	return d
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }
