package main

import (
	"math"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuantileCountsSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{1000, 0.99, 990, 10},
		{999, 0.99, 990, 9},
		{1000, 0.50, 500, 500},
		{1, 0.99, 1, 0},
		{10, 0, 1, 9},
	} {
		v, beyond := quantile(ascending(tc.n), tc.q)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("quantile(1..%d, %v) = %v, %d beyond; want %v, %d", tc.n, tc.q, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %v, want NaN", v)
	}
}

func TestSummarizeNeedsTenSamplesBeyondP99(t *testing.T) {
	if s := summarize(ascending(1000), missCostMs); !s.P99Supported || s.Samples != 1000 || s.P99 != 990 || s.P95 != 950 || s.P50 != 500 {
		t.Errorf("1000 samples: %+v", s)
	}
	if s := summarize(ascending(999), missCostMs); s.P99Supported {
		t.Errorf("999 samples: p99 supported with %d samples", s.Samples)
	}
}

func TestMissesSortLastAndCostTheLimit(t *testing.T) {
	samples := ascending(1000)
	// Shuffle misses in: 20 requests that never got a good answer.
	for i := 0; i < 20; i++ {
		samples[i*50] = latencyOf(outStale, 1)
	}
	s := summarize(samples, missCostMs)
	if s.Misses != 20 {
		t.Fatalf("misses = %d, want 20", s.Misses)
	}
	if s.P99 != missCostMs {
		t.Errorf("p99 = %v, want the miss cost %v", s.P99, missCostMs)
	}
	if s.P99 <= latencyLimitMs {
		t.Errorf("a missed p99 reads %v ms, within the %d ms limit", s.P99, latencyLimitMs)
	}
	if s.P50 == missCostMs {
		t.Errorf("p50 fell on a miss with 2%% misses")
	}
}

func TestFailuresAndStaleCountAsMisses(t *testing.T) {
	var c opCounts
	c.add(outGood, 10, latencyLimitMs)
	c.add(outGood, 60, latencyLimitMs) // succeeded, but beyond the limit
	for _, o := range []outcome{outStale, outShedRoom, outShedGlobal, outExpired, outError, outUndispatched} {
		c.add(o, 1, latencyLimitMs)
		if got := latencyOf(o, 1); !math.IsInf(got, 1) {
			t.Errorf("latencyOf(%v) = %v, want a miss", o, got)
		}
	}
	if got := latencyOf(outGood, 3); got != 3 {
		t.Errorf("latencyOf(good, 3) = %v", got)
	}
	if c.Sent != 8 || c.Succeeded() != 2 || c.Failed() != 6 || c.Late != 1 {
		t.Errorf("counts: sent %d succeeded %d failed %d late %d; want 8 2 6 1", c.Sent, c.Succeeded(), c.Failed(), c.Late)
	}
	var total opCounts
	total.merge(c)
	total.merge(c)
	if total.Sent != 16 || total.Failed() != 12 || total.Late != 2 || total.ByKind[outStale] != 2 {
		t.Errorf("merged: %+v", total)
	}
}

func TestPoissonScheduleIsDeterministicFromSeed(t *testing.T) {
	const rate, dur = 400.0, 10 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed: arrival %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := poissonSchedule(8, rate, dur)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	// 4000 expected arrivals; 5 standard deviations is ±316.
	if n := float64(len(a)); math.Abs(n-rate*dur.Seconds()) > 5*math.Sqrt(rate*dur.Seconds()) {
		t.Errorf("%v arrivals, want about %v", n, rate*dur.Seconds())
	}
	for i, d := range a {
		if d < 0 || d >= dur || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: out of order or outside [0, %v)", i, d, dur)
		}
	}
	if poissonSchedule(1, 0, dur) != nil {
		t.Error("rate 0 scheduled arrivals")
	}
}

func TestDigestIsStableAndBitExact(t *testing.T) {
	sum := func() string {
		return newDigest().str("Table II").int(3).float(59.8).float(math.Copysign(0, -1)).hex()
	}
	// Pinned, so checked-in expected digests stay valid. Computed outside Go
	// as SHA-256 over the little-endian encodings: int64 8, "Table II",
	// int64 3, float64 59.8, float64 -0.
	const want = "f969ad8673703404da3140e60d689c37184833948142e4aa6529b7647de3f6e3"
	if got := sum(); got != sum() {
		t.Fatal("digest differs between two computations of the same values")
	} else if got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	if newDigest().float(0.0).hex() == newDigest().float(math.Copysign(0, -1)).hex() {
		t.Error("digest does not tell 0 from -0")
	}
	if newDigest().int(1).int(2).hex() == newDigest().int(2).int(1).hex() {
		t.Error("digest is order-insensitive")
	}
	if newDigest().str("ab").str("c").hex() == newDigest().str("a").str("bc").hex() {
		t.Error("digest lets string boundaries shift")
	}
}

func TestWindowQuantileTakesMedianWindow(t *testing.T) {
	var due []time.Duration
	var lat []float64
	add := func(win int, ms ...float64) {
		for i, v := range ms {
			due = append(due, time.Duration(win)*time.Second+time.Duration(i)*time.Millisecond)
			lat = append(lat, v)
		}
	}
	add(0, 1, 2, 3)
	add(1, 40, 50, miss) // a stalled second with a miss
	add(2, 4, 5, 6)
	add(5, 99) // past the phase: not counted
	if got := median(windowQuantiles(due, lat, 3*time.Second, time.Second, 0.5)); got != 5 {
		t.Errorf("median window p50 = %v, want 5", got)
	}
	// The stalled window's p95 falls on the miss and reads the miss cost;
	// the median window is still a healthy one.
	if got := median(windowQuantiles(due, lat, 3*time.Second, time.Second, 0.95)); got != 6 {
		t.Errorf("median window p95 = %v, want 6", got)
	}
	if got := median(windowQuantiles(nil, nil, 3*time.Second, time.Second, 0.5)); !math.IsNaN(got) {
		t.Errorf("no samples: %v, want NaN", got)
	}
}

func TestWindowRateTakesMedianWindow(t *testing.T) {
	var at []time.Duration
	add := func(win, n int) {
		for i := 0; i < n; i++ {
			at = append(at, time.Duration(win)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	add(0, 100)
	add(1, 10) // a stalled second
	add(2, 100)
	add(3, 500) // past the phase: not counted
	rates := windowRates(at, 3*time.Second, time.Second)
	if rate := median(rates); len(rates) != 3 || rate != 100 {
		t.Errorf("windowRates = %v, want median 100 over 3 windows", rates)
	}
	if rates := windowRates(at, 2*time.Second, 500*time.Millisecond); len(rates) != 4 || rates[0] != 200 || rates[1] != 0 {
		t.Errorf("half-second windowRates = %v, want [200 0 20 0]", rates)
	}
}

func TestCheckRendered(t *testing.T) {
	for _, tc := range []struct {
		rendered []int
		ok       bool
	}{
		{[]int{1, 2, 3}, true},
		{nil, true},
		{[]int{0, 5}, false},  // the target itself
		{[]int{1, 10}, false}, // outside [0, 10)
		{[]int{-1}, false},
		{[]int{2, 2}, false}, // repeated
	} {
		if err := checkRendered(tc.rendered, 10, 5); (err == nil) != tc.ok {
			t.Errorf("checkRendered(%v, n=10, target=5) = %v, want ok=%v", tc.rendered, err, tc.ok)
		}
	}
}

func TestMidMeanDropsQuartileTails(t *testing.T) {
	// Eight windows: the two lowest and two highest are dropped.
	if got := midMean([]float64{900, 10, 100, 102, 98, 5000, 100, 1}); got != 100 {
		t.Errorf("midMean = %v, want 100", got)
	}
	// Fewer than four values: nothing is dropped.
	if got := midMean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("midMean of three = %v, want 3", got)
	}
	if got := midMean(nil); !math.IsNaN(got) {
		t.Errorf("midMean(nil) = %v, want NaN", got)
	}
}
