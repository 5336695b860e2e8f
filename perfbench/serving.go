package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/baselines"
	"after/internal/exp"
	"after/internal/parallel"
	"after/internal/serve"
	"after/internal/sim"
)

// latencyLimitMs is the per-request limit every latency metric is judged
// against: afterd's default 50 ms frame deadline.
const latencyLimitMs = 50

// requestDeadlineMs is the budget every request carries (afterd's 1 s
// maximum). Under the server's 50 ms default, one stall of the host of a few
// tens of milliseconds expires queued requests and serves a whole fused batch
// stale, so how many requests fail would depend on the host's scheduler, not
// on the program. With this budget the daemon answers every request, and the
// client judges each answer against latencyLimitMs instead: a late answer
// misses goodput and counts in the latency metrics, but is not a failure.
const requestDeadlineMs = 1000

// maxOutstanding bounds the open-loop generator's in-flight requests. An
// arrival due while this many are outstanding is not sent and counts as a
// failed (undispatched) request.
const maxOutstanding = 4096

// goodputWindow is the window closed-loop goodput is counted in; the
// reported rate is the mid-mean over the windows, so a short stall of the
// host does not move it.
const goodputWindow = 500 * time.Millisecond

// servingSpec is one serving workload's traffic.
type servingSpec struct {
	Rooms    int     // rooms served
	Users    int     // N per room
	RoomSeed int64   // room i is generated from seed RoomSeed+i
	Horizon  int     // trajectory steps per room, replayed cyclically
	FrameHz  float64 // frames posted per room per second
	InFlight int     // closed phase: requests kept in flight
	OpenRate float64 // open phase: Poisson arrivals per second, all rooms
}

// servingBench is one serving workload run: the client-side inputs, and the
// daemon instance currently set up against them.
type servingBench struct {
	spec   servingSpec
	rooms  []*roomInput
	checks *checker

	srv       *serve.Server
	cl        *client
	nextFrame []int // next frame index per room
}

func newServingBench(spec servingSpec, checks *checker) (*servingBench, error) {
	b := &servingBench{spec: spec, checks: checks, rooms: make([]*roomInput, spec.Rooms)}
	errs := make([]error, spec.Rooms)
	parallel.ForEachN(spec.Rooms, runtime.GOMAXPROCS(0), func(i int) {
		b.rooms[i], errs[i] = newRoomInput(fmt.Sprintf("r%02d", i), spec.Users, spec.Horizon, spec.RoomSeed+int64(i))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// setup builds a fresh daemon the way afterd does with its defaults — f64
// POSHGNN primary trained at scale 0.3, Nearest fallback, max batch 16,
// 2 ms window, 50 ms deadline — creates every room, posts frame 0 to each,
// and sends one request per (room, target), so lazy guard and session
// creation is over before anything is timed. wrap, when non-nil, wraps the
// primary (the traced run's layer probe).
func (b *servingBench) setup(wrap func(sim.Recommender) sim.Recommender) (opCounts, error) {
	var ops opCounts
	rec, err := exp.ServePrimary(exp.Options{Scale: 0.3})
	if err != nil {
		return ops, fmt.Errorf("train primary: %w", err)
	}
	if wrap != nil {
		rec = wrap(rec)
	}
	b.srv = serve.New(serve.Config{Primary: rec, Fallbacks: []sim.Recommender{baselines.Nearest{}}})
	b.cl = newClient(b.srv.Handler(), b.checks)
	b.nextFrame = make([]int, len(b.rooms))

	errs := make([]error, len(b.rooms))
	parallel.ForEachN(len(b.rooms), runtime.GOMAXPROCS(0), func(i int) {
		if errs[i] = b.cl.createRoom(b.rooms[i]); errs[i] != nil {
			return
		}
		if ok, _ := b.cl.frame(b.rooms[i], 0); !ok {
			errs[i] = fmt.Errorf("room %s: frame 0 rejected", b.rooms[i].name)
		}
	})
	for _, err := range errs {
		if err != nil {
			return ops, err
		}
	}
	for i := range b.nextFrame {
		b.nextFrame[i] = 1
	}
	ops.Sent += 2 * len(b.rooms)

	// Warm-up runs room-major, so concurrent requests share a room and its
	// batches fill.
	var mu sync.Mutex
	total := len(b.rooms) * b.spec.Users
	parallel.ForEachN(total, 2*b.spec.InFlight, func(k int) {
		rm, target := b.rooms[k/b.spec.Users], k%b.spec.Users
		o, _, _ := b.cl.recommend(rm, target, requestDeadlineMs)
		mu.Lock()
		ops.add(o, 0, latencyLimitMs)
		mu.Unlock()
	})
	ops.ByKind[outGood] += 2 * len(b.rooms) // room creations and frame 0 all succeeded
	if f := ops.Failed(); f > 0 {
		return ops, fmt.Errorf("warm-up: %d of %d requests failed", f, total)
	}
	return ops, nil
}

// close drains the daemon (every batcher flushes and stops).
func (b *servingBench) close() {
	if b.srv != nil {
		if err := b.srv.Close(); err != nil {
			b.checks.fail("drain: %v", err)
		}
		b.srv, b.cl = nil, nil
	}
}

// event is one open-loop arrival: a frame post (target < 0) or a
// recommendation request, due at an offset from the phase start.
type event struct {
	due    time.Duration
	room   int
	target int
	frame  int
}

// frameRef names one frame the phase sent.
type frameRef struct{ room, k int }

// phaseResult is what one measured phase observed.
type phaseResult struct {
	wall time.Duration

	closed opCounts
	// goodputWins is the closed phase's answers within the limit per
	// second, one value per whole goodputWindow window.
	goodputWins []float64
	open        opCounts
	openLat     []float64 // ms from due time; misses as +Inf
	openDue     []time.Duration
	frames      opCounts
	frameLat    []float64 // ms from due time; misses as +Inf
	lateMs      []float64 // how late the generator dispatched each scheduled event

	recBusy    time.Duration // Σ handler time over recommendation requests
	recCount   int
	frameBusy  time.Duration // Σ handler time over frame posts
	sentFrames []frameRef
}

// schedule builds a phase's open-loop events: every room's frames at
// FrameHz from a seeded phase offset, plus (openRate > 0) seeded Poisson
// recommendation arrivals spread uniformly over (room, target).
func (b *servingBench) schedule(phaseSeed int64, dur time.Duration, openRate float64) []event {
	rng := rand.New(rand.NewSource(phaseSeed))
	period := time.Duration(float64(time.Second) / b.spec.FrameHz)
	var evs []event
	for i := range b.rooms {
		for due := time.Duration(rng.Int63n(int64(period))); due < dur; due += period {
			evs = append(evs, event{due: due, room: i, target: -1, frame: b.nextFrame[i]})
			b.nextFrame[i]++
		}
	}
	for _, due := range poissonSchedule(phaseSeed+1, openRate, dur) {
		evs = append(evs, event{due: due, room: rng.Intn(len(b.rooms)), target: rng.Intn(b.spec.Users)})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// runPhase measures one phase of dur: closed-loop workers (InFlight
// requests kept in flight) when closed is set, and the open-loop schedule
// (frames, plus Poisson requests at openRate) throughout.
func (b *servingBench) runPhase(phaseSeed int64, dur time.Duration, closed bool, openRate float64) *phaseResult {
	evs := b.schedule(phaseSeed, dur, openRate)
	res := &phaseResult{}
	outs := make([]outcome, len(evs))
	lat := make([]float64, len(evs))
	busy := make([]time.Duration, len(evs))
	res.lateMs = make([]float64, len(evs))

	type workerOut struct {
		ops    opCounts
		goodAt []time.Duration // completion offsets of answers within the limit
		busy   time.Duration
	}
	workers := make([]workerOut, 0)
	if closed {
		workers = make([]workerOut, b.spec.InFlight)
	}

	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(phaseSeed*131 + int64(w) + 7))
			out := &workers[w]
			for time.Now().Before(end) {
				rm := b.rooms[rng.Intn(len(b.rooms))]
				target := rng.Intn(b.spec.Users)
				t0 := time.Now()
				o, _, took := b.cl.recommend(rm, target, requestDeadlineMs)
				d := time.Since(t0)
				out.busy += took
				out.ops.add(o, ms(d), latencyLimitMs)
				if o == outGood && ms(d) <= latencyLimitMs {
					out.goodAt = append(out.goodAt, time.Since(start))
				}
			}
		}(w)
	}

	var outstanding atomic.Int64
	for i := 0; i < len(evs); {
		now := time.Since(start)
		if wait := evs[i].due - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; i < len(evs) && evs[i].due <= now; i++ {
			res.lateMs[i] = ms(now - evs[i].due)
			if outstanding.Load() >= maxOutstanding {
				outs[i], lat[i] = outUndispatched, miss
				continue
			}
			outstanding.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer outstanding.Add(-1)
				ev := evs[i]
				rm := b.rooms[ev.room]
				if ev.target < 0 {
					outs[i] = outError
					ok, took := b.cl.frame(rm, ev.frame)
					if ok {
						outs[i] = outGood
					}
					busy[i] = took
				} else {
					outs[i], _, busy[i] = b.cl.recommend(rm, ev.target, requestDeadlineMs)
				}
				lat[i] = ms(time.Since(start) - ev.due)
			}(i)
		}
	}
	wg.Wait()
	res.wall = time.Since(start)

	for i, ev := range evs {
		if ev.target < 0 {
			res.frames.add(outs[i], lat[i], latencyLimitMs)
			res.frameLat = append(res.frameLat, latencyOf(outs[i], lat[i]))
			res.frameBusy += busy[i]
			res.sentFrames = append(res.sentFrames, frameRef{ev.room, ev.frame})
			continue
		}
		res.open.add(outs[i], lat[i], latencyLimitMs)
		res.openLat = append(res.openLat, latencyOf(outs[i], lat[i]))
		res.openDue = append(res.openDue, ev.due)
		res.recBusy += busy[i]
		res.recCount++
	}
	var goodAt []time.Duration
	for _, w := range workers {
		res.closed.merge(w.ops)
		goodAt = append(goodAt, w.goodAt...)
		res.recBusy += w.busy
		res.recCount += w.ops.Sent
	}
	res.goodputWins = windowRates(goodAt, dur, goodputWindow)
	return res
}

// Sequential-replay check: a dedicated room, fixed frames × targets, one
// request at a time. The fused f64 path is deterministic, so the digest of
// every rendered set is a constant of the model and the serving stack.
const (
	digestUsers   = 60
	digestHorizon = 12
	digestSeed    = 7
)

var digestTargets = []int{0, 11, 23, 37, 59}

// wantServeDigest is the replay digest of the f64 serving path.
const wantServeDigest = "078080147146fc1c8b6408a1061eb0d2ed55ecaa505018993c7a104c37784bac"

func (b *servingBench) replayDigest() (string, opCounts, error) {
	var ops opCounts
	rm, err := newRoomInput("digest", digestUsers, digestHorizon, digestSeed)
	if err != nil {
		return "", ops, err
	}
	if err := b.cl.createRoom(rm); err != nil {
		return "", ops, err
	}
	d := newDigest()
	for k := 0; k <= digestHorizon; k++ {
		ops.Sent++
		if ok, _ := b.cl.frame(rm, k); !ok {
			return "", ops, fmt.Errorf("digest room: frame %d rejected", k)
		}
		ops.ByKind[outGood]++
		for _, target := range digestTargets {
			o, rep, _ := b.cl.recommend(rm, target, requestDeadlineMs)
			ops.add(o, 0, latencyLimitMs)
			if o != outGood {
				return "", ops, fmt.Errorf("digest room: frame %d target %d: %v", k, target, o)
			}
			d.int(k).int(target).int(rep.Step).str(rep.ServedBy).int(len(rep.Rendered))
			for _, w := range rep.Rendered {
				d.int(w)
			}
		}
	}
	return d.hex(), ops, nil
}
