// Command perfbench is the repository benchmark. It serves recommendations
// through afterd's serving stack in-process (serve.Server's HTTP handler,
// no sockets) under a closed loop and a seeded open loop, then regenerates
// Table II, and prints every metric by name with its unit. Run it from the
// repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with every in-program recorder
// off; --trace 1 measures the per-layer metrics from a traced run. The last
// line of standard output is one JSON object with the run's verdict and
// metrics. The exit code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/parallel"
	"after/internal/sim"
)

// workloads are the serving traffic mixes; every run also regenerates
// Table II after serving.
var workloads = map[string]servingSpec{
	// One hot Timik room at N=500: batches fill to ~16 distinct targets, so
	// per-pass occlusion conversion and the fused core forward dominate.
	"serve-hot": {Rooms: 1, Users: 500, RoomSeed: 101, Horizon: 40, FrameHz: 10, InFlight: 16, OpenRate: 300},
	// 32 Timik rooms at N=200: batches hold ~1 target, so per-request
	// serving overhead and frame ingestion dominate. (Every warmed target
	// keeps ~60 KB of session state; 64 rooms peak above 2 GB resident.)
	"serve-many": {Rooms: 32, Users: 200, RoomSeed: 201, Horizon: 20, FrameHz: 10, InFlight: 16, OpenRate: 600},
}

// latencyWindow is the window the open-phase median latency is taken in;
// the reported value is the mid-mean over the windows.
const latencyWindow = 500 * time.Millisecond

// segments is how many closed/open phase pairs an untraced run interleaves,
// so a slow spell of the host falls on a few windows of each phase rather
// than on the whole of one.
const segments = 5

// setupReps is how many times an untraced run sets the daemon up; setup_s
// is their median.
const setupReps = 3

// Share of --seconds each measured phase gets (an untraced run splits each
// share over its segments).
const (
	closedShare = 0.3
	openShare   = 0.7
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner accumulates one run's per-phase op counts and metrics.
type runner struct {
	spec    servingSpec
	seed    int64
	seconds float64
	checks  checker

	phases []string
	ops    map[string]opCounts
	names  []string
	mets   map[string]metric
}

func (r *runner) addOps(phase string, c opCounts) {
	if _, ok := r.ops[phase]; !ok {
		r.phases = append(r.phases, phase)
	}
	prev := r.ops[phase]
	prev.merge(c)
	r.ops[phase] = prev
}

func (r *runner) set(name, unit string, v float64) {
	if _, ok := r.mets[name]; !ok {
		r.names = append(r.names, name)
	}
	r.mets[name] = metric{Value: v, Unit: unit}
}

func (r *runner) dur(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "serve-hot or serve-many")
	seed := flag.Int64("seed", 1, "input seed: rooms, request targets, arrival times")
	seconds := flag.Float64("seconds", 10, "serving measurement time per run, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	spec, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want serve-hot or serve-many)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel.SetLimit(0)
	obs.SetEnabled(false)
	obs.SetTracing(false)
	quality.SetEnabled(false)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("perfbench: %d room(s) N=%d, %g Hz frames, closed %d in flight, open %g req/s Poisson\n",
		spec.Rooms, spec.Users, spec.FrameHz, spec.InFlight, spec.OpenRate)

	r := &runner{spec: spec, seed: *seed, seconds: *seconds, ops: map[string]opCounts{}, mets: map[string]metric{}}
	var err error
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	var total opCounts
	for _, ph := range r.phases {
		c := r.ops[ph]
		total.merge(c)
		var reasons []string
		for k := outcome(1); k < numOutcomes; k++ {
			if n := c.ByKind[k]; n > 0 {
				reasons = append(reasons, fmt.Sprintf("%s=%d", k, n))
			}
		}
		fmt.Printf("ops %-8s sent=%d succeeded=%d failed=%d late=%d %s\n",
			ph, c.Sent, c.Succeeded(), c.Failed(), c.Late, strings.Join(reasons, " "))
	}
	for _, name := range r.names {
		m := r.mets[name]
		fmt.Printf("metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	nfail, msgs := r.checks.failures()
	for _, m := range msgs {
		fmt.Printf("check FAILED: %s\n", m)
	}
	fmt.Printf("checks: %d failed\n", nfail)

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{nfail == 0, total.Sent, total.Failed(), r.mets})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if nfail > 0 {
		return 1
	}
	return 0
}

// untraced measures the end-to-end metrics with every recorder off: three
// set-ups, then segments closed/open phase pairs, each metric over all of
// them.
func (r *runner) untraced() error {
	b, err := newServingBench(r.spec, &r.checks)
	if err != nil {
		return err
	}
	defer b.close()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		b.close()
		runtime.GC()
		start := time.Now()
		ops, err := b.setup(nil)
		setups = append(setups, time.Since(start).Seconds())
		r.addOps("setup", ops)
		if err != nil {
			return err
		}
	}

	var goodput, latWins, openLat, frameLat []float64
	openDur := r.dur(openShare / segments)
	for k := int64(0); k < segments; k++ {
		closed := b.runPhase(100*r.seed+2*k+1, r.dur(closedShare/segments), true, 0)
		open := b.runPhase(100*r.seed+2*k+2, openDur, false, r.spec.OpenRate)
		r.addOps("closed", closed.closed)
		r.addOps("open", open.open)
		r.addOps("frames", closed.frames)
		r.addOps("frames", open.frames)
		goodput = append(goodput, closed.goodputWins...)
		latWins = append(latWins, windowQuantiles(open.openDue, open.openLat, openDur, latencyWindow, 0.50)...)
		openLat = append(openLat, open.openLat...)
		frameLat = append(frameLat, open.frameLat...)
	}
	if err := r.checkServeDigest(b); err != nil {
		return err
	}
	b.close()
	runtime.GC()

	t2, err := runTable2(&r.checks)
	r.addOps("table2", tally(err))
	if err != nil {
		return err
	}

	lat := summarize(openLat, missCostMs)
	if !lat.P99Supported {
		return fmt.Errorf("open phase: %d requests cannot support p99", lat.Samples)
	}
	frames := summarize(frameLat, missCostMs)
	r.set("throughput_rps", "1/s", midMean(goodput))
	r.set("latency_p50_ms", "ms", midMean(latWins))
	r.set("frame_p50_ms", "ms", frames.P50)
	r.set("table2_s", "s", t2.Seconds())
	r.set("setup_s", "s", median(setups))
	r.set("rss_peak_mb", "MB", rssPeakMB())
	fmt.Printf("samples: open requests=%d, misses %d; whole phase p50 %.3f p95 %.3f p99 %.3f ms\n",
		lat.Samples, lat.Misses, lat.P50, lat.P95, lat.P99)
	fmt.Printf("samples: open frames=%d (p99 %.3f ms), closed requests=%d, setups=%v\n",
		frames.Samples, frames.P99, r.ops["closed"].Sent, setups)
	fmt.Printf("samples: goodput per window %.0f\n", goodput)
	fmt.Printf("samples: p50 per latency window %.2f\n", latWins)
	return nil
}

// traced measures the per-layer metrics: the daemon is set up once with the
// layer probe around its primary, an untraced closed phase gives the
// reference for the tracing overhead, then traced closed and open phases run
// with the program's obs registry on, and Table II runs untraced and traced.
func (r *runner) traced() error {
	b, err := newServingBench(r.spec, &r.checks)
	if err != nil {
		return err
	}
	defer b.close()
	var probe *layerProbe
	ops, err := b.setup(func(rec sim.Recommender) sim.Recommender {
		p, perr := newLayerProbe(rec)
		if perr != nil {
			err = perr
			return rec
		}
		probe = p
		return p
	})
	r.addOps("setup", ops)
	if err != nil {
		return err
	}

	ref := b.runPhase(10*r.seed+1, r.dur(closedShare), true, 0)
	r.addOps("reference", ref.closed)
	r.addOps("frames", ref.frames)

	obs.SetEnabled(true)
	obs.Default().Reset()
	gc := prof.NewGCPauseDelta()
	probe.on.Store(true)
	closed := b.runPhase(10*r.seed+2, r.dur(closedShare), true, 0)
	passes, solo := probe.take()
	closedReg := readServeRegistry()
	obs.Default().Reset()
	open := b.runPhase(10*r.seed+3, r.dur(openShare), false, r.spec.OpenRate)
	openPasses, openSolo := probe.take()
	openReg := readServeRegistry()
	probe.on.Store(false)
	obs.SetEnabled(false)
	gcP99 := gc.P99Seconds() * 1e3
	runtime.GC()
	heapMB := heapLiveMB()
	r.addOps("closed", closed.closed)
	r.addOps("open", open.open)
	r.addOps("frames", closed.frames)
	r.addOps("frames", open.frames)
	if err := r.checkServeDigest(b); err != nil {
		return err
	}
	b.close()
	runtime.GC()

	untracedT2, err := runTable2(&r.checks)
	r.addOps("table2", tally(err))
	if err != nil {
		return err
	}
	obs.SetEnabled(true)
	obs.Default().Reset()
	tracedT2, err := runTable2(&r.checks)
	obs.SetEnabled(false)
	r.addOps("table2", tally(err))
	if err != nil {
		return err
	}

	// serve: the traced closed phase carries the batching mechanics; the
	// open phase carries the frame stream and the generator's lateness.
	procs := float64(runtime.GOMAXPROCS(0))
	core := summarizePasses(passes)
	occ := replayOcclusion(passes, b.positionsOf(&r.checks), 3000)
	occTotal := time.Duration(occ.usPerTarget * float64(core.targets) * float64(time.Microsecond))
	reqsPerPass := 0.0
	if closedReg.fusedPasses > 0 {
		reqsPerPass = float64(closedReg.batchedReqs) / float64(closedReg.fusedPasses)
	}
	self := closed.recBusy - time.Duration(closedReg.queueWaitSum) -
		time.Duration(float64(core.total+occTotal)*reqsPerPass)
	sent := closed.closed.Sent + open.open.Sent

	r.set("serve.queue_wait_p50_ms", "ms", closedReg.queueWaitP50)
	r.set("serve.queue_wait_p99_ms", "ms", closedReg.queueWaitP99)
	r.set("serve.batch_size_mean", "count", ratio(closedReg.batchedReqs, closedReg.batches))
	r.set("serve.fused_targets_per_pass", "count", ratio(closedReg.fusedTargets, closedReg.fusedPasses))
	r.set("serve.step_p50_ms", "ms", closedReg.stepP50)
	r.set("serve.step_p99_ms", "ms", closedReg.stepP99)
	r.set("serve.self_us_per_req", "us", float64(self)/float64(time.Microsecond)/float64(closed.recCount))
	r.set("serve.frame_us", "us", float64(open.frameBusy)/float64(time.Microsecond)/float64(open.frames.Sent))
	r.set("serve.frame_cpu_share", "ratio", open.frameBusy.Seconds()/(open.wall.Seconds()*procs))
	r.set("serve.frame_p99_ms", "ms", summarize(open.frameLat, missCostMs).P99)
	r.set("serve.open_queue_wait_p99_ms", "ms", openReg.queueWaitP99)
	r.set("serve.failed_ratio", "ratio", float64(closedReg.failed+openReg.failed)/float64(sent))
	r.set("core.pass_ms_p50", "ms", core.p50)
	r.set("core.pass_ms_p99", "ms", core.p99)
	r.set("core.us_per_target", "us", float64(core.total)/float64(time.Microsecond)/float64(core.targets))
	r.set("core.busy_share", "ratio", core.total.Seconds()/(closed.wall.Seconds()*procs))
	r.set("core.solo_steps", "count", float64(solo+openSolo))
	r.set("occlusion.us_per_target", "us", occ.usPerTarget)
	r.set("occlusion.edges_per_target", "count", occ.edgesPerTarget)
	r.set("occlusion.share_of_pass", "ratio", occTotal.Seconds()/(occTotal+core.total).Seconds())
	r.set("resilience.sanitize_us_per_frame", "us", replaySanitize(b.rooms, open.sentFrames))
	r.set("runtime.gc_pause_p99_ms", "ms", gcP99)
	r.set("runtime.heap_live_mb", "MB", heapMB)
	r.set("train.epoch_ms_p50", "ms", histMs("train.epoch", 0.5))
	r.set("train.epochs", "count", float64(counter("train.epochs")))
	for _, rec := range []string{"POSHGNN", "COMURNet", "TGCN", "DCRNN", "cand"} {
		r.set("sim.step_us."+rec, "us", histUs(obs.Label("sim.step", "rec", rec), 0.5))
	}
	r.set("sim.episodes", "count", float64(counter("sim.episodes")))
	r.set("parallel.task_wait_p50_ms", "ms", histMs("parallel.task_wait", 0.5))
	openLat := summarize(open.openLat, missCostMs)
	r.set("open.latency_p95_ms", "ms", openLat.P95)
	r.set("open.latency_p99_ms", "ms", openLat.P99)
	late := summarize(open.lateMs, 0)
	r.set("gen.late_p99_ms", "ms", late.P99)
	// Overhead: per-request wall time of the traced closed phase over the
	// untraced reference, and traced over untraced Table II.
	perReq := func(p *phaseResult) float64 { return p.wall.Seconds() / float64(p.closed.Sent) }
	r.set("trace.overhead_ratio", "ratio", perReq(closed)/perReq(ref)-1)
	r.set("trace.table2_overhead_ratio", "ratio", tracedT2.Seconds()/untracedT2.Seconds()-1)
	openCore := summarizePasses(openPasses)
	fmt.Printf("traced closed phase: %d passes, %d targets, occlusion replayed on %d targets\n", core.passes, core.targets, occ.replayed)
	fmt.Printf("traced open phase: %d passes, %d targets, pass p50 %.3f ms p99 %.3f ms, queue wait p50 %.3f ms p99 %.3f ms, step p99 %.3f ms\n",
		openCore.passes, openCore.targets, openCore.p50, openCore.p99, openReg.queueWaitP50, openReg.queueWaitP99, openReg.stepP99)
	return nil
}

// checkServeDigest runs the sequential replay on a dedicated room and
// compares its digest with the f64 serving path's known value.
func (r *runner) checkServeDigest(b *servingBench) error {
	got, ops, err := b.replayDigest()
	r.addOps("digest", ops)
	if err != nil {
		return err
	}
	if got != wantServeDigest {
		r.checks.fail("serving replay digest %s, want %s", got, wantServeDigest)
	}
	return nil
}

// positionsOf maps a recorded pass to the positions its frame carried. The
// server generated its rooms itself; the client-side rooms must match them
// exactly (same spec, same generator), which this also checks.
func (b *servingBench) positionsOf(checks *checker) func(pass) []geom.Vec2 {
	byRoom := map[*dataset.Room]*roomInput{}
	return func(p pass) []geom.Vec2 {
		rm, ok := byRoom[p.room]
		if !ok {
			for _, cand := range b.rooms {
				if cand.n == p.room.N && samePositions(cand.pos[0], p.room.Traj.Pos[0]) {
					rm = cand
					break
				}
			}
			if rm == nil {
				checks.fail("server room (N=%d) matches no client-side trajectory", p.room.N)
				rm = &roomInput{pos: p.room.Traj.Pos}
			}
			byRoom[p.room] = rm
		}
		return rm.positionsAt(p.t)
	}
}

func samePositions(a, b []geom.Vec2) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveRegistry is the serve layer as the program's own obs registry saw a
// phase.
type serveRegistry struct {
	queueWaitP50, queueWaitP99 float64
	queueWaitSum               int64
	stepP50, stepP99           float64
	batches, batchedReqs       int64
	fusedPasses, fusedTargets  int64
	failed                     int64 // shed 429 + shed 503 + expired + degraded
}

func readServeRegistry() serveRegistry {
	qw := obs.Default().Histogram("serve.queue_wait")
	return serveRegistry{
		queueWaitP50: histMs("serve.queue_wait", 0.5),
		queueWaitP99: histMs("serve.queue_wait", 0.99),
		queueWaitSum: qw.Sum(),
		stepP50:      histMs("serve.step", 0.5),
		stepP99:      histMs("serve.step", 0.99),
		batches:      counter("serve.batches"),
		batchedReqs:  counter("serve.batched_requests"),
		fusedPasses:  counter("serve.fused_passes"),
		fusedTargets: counter("serve.fused_targets"),
		failed: counter("serve.shed_room_queue") + counter("serve.shed_global_queue") +
			counter("serve.expired_in_queue") + counter("serve.degraded"),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tally is the op count of one Table II regeneration.
func tally(err error) opCounts {
	c := opCounts{Sent: 1}
	if err == nil {
		c.ByKind[outGood] = 1
	} else {
		c.ByKind[outError] = 1
	}
	return c
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
