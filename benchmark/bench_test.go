package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// TestQuick runs every workload at the smoke sizing, untraced and
// traced, and holds the output to BENCHMARK.json: every named metric is
// emitted, with its unit and a finite value, and nothing unnamed is.
func TestQuick(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	start := time.Now()
	for i, s := range specs {
		if w := c.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
		for _, mode := range []struct {
			trace bool
			want  []contractMetric
		}{{false, c.EndToEnd}, {true, c.PerLayer}} {
			rep := runOne(s, defaultSeed, 0.3, mode.trace, true, ".")
			if !rep.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", s.name, mode.trace, rep.Failed, rep.Attempted, rep.Errors)
			}
			for _, m := range mode.want {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q does not match %v", m.Name, name)
				}
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is not emitted", s.name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", s.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", s.name, m.Name, got.Value)
				}
			}
			if len(rep.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", s.name, mode.trace, len(rep.Metrics), len(mode.want))
			}
		}
	}
	// The budget is 10 s for all ten runs (≈4 s on the sizing box); the
	// limit leaves room for the race detector, which triples it.
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("quick mode took %v", d)
	}
}

func TestQuantileIsExact(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[(i*37)%100] = float64(i + 1) // 1..100, shuffled
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want it", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := supportedTail(c.n); q > 0 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
	}
}

// spread must be the driver's statistic: statistics.quantiles(v, n=4),
// (q3-q1)/median.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 10.5, 13, 11.5, 10, 12.5}
	// statistics.quantiles(v, n=4) == [10.0, 11.25, 12.625]; median 11.25.
	if got, want := spread(v), (12.625-10.0)/11.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// fakeClock advances only when told to: Sleep moves it, and so does
// the operation under test.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const ms = time.Millisecond
	// Five operations due every 10 ms; the second stalls for 25 ms.
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	var issued, ended []time.Time
	due, late := openLoop(clk, len(service), 10*ms, func(i int) {
		issued = append(issued, clk.now)
		clk.now = clk.now.Add(service[i])
		ended = append(ended, clk.now)
	})
	wantIssued := []time.Duration{0, 10 * ms, 35 * ms, 37 * ms, 40 * ms}
	wantLate := []time.Duration{0, 0, 15 * ms, 7 * ms, 0}
	wantLatency := []time.Duration{2 * ms, 25 * ms, 17 * ms, 9 * ms, 2 * ms} // from the due time, queue wait included
	for i := range service {
		if got := due[i].Sub(start); got != time.Duration(i)*10*ms {
			t.Errorf("op %d due at +%v, want +%v", i, got, time.Duration(i)*10*ms)
		}
		if got := issued[i].Sub(start); got != wantIssued[i] {
			t.Errorf("op %d issued at +%v, want +%v", i, got, wantIssued[i])
		}
		if late[i] != wantLate[i] {
			t.Errorf("op %d late by %v, want %v", i, late[i], wantLate[i])
		}
		if got := ended[i].Sub(due[i]); got != wantLatency[i] {
			t.Errorf("op %d latency from due time %v, want %v", i, got, wantLatency[i])
		}
	}
	// A single blocking generator never has two operations in flight.
	if got := maxBacklog(due, late, ended); got != 1 {
		t.Errorf("maxBacklog = %d, want 1", got)
	}
	// Results that arrive long after their sends were issued pile up.
	overlapping := []time.Time{start.Add(30 * ms), start.Add(31 * ms), start.Add(32 * ms), start.Add(33 * ms), start.Add(41 * ms)}
	if got := maxBacklog(due, make([]time.Duration, 5), overlapping); got != 3 {
		t.Errorf("maxBacklog with ends lagging = %d, want 3", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	sp := func(name string, parent int, start, end int64) span {
		return span{Name: name, Parent: parent, Start: start, End: end, Slowdown: 1}
	}
	spans := []span{
		sp("facade", -1, 0, 100),    // 0
		sp("engine", 0, 1000, 1070), // 1: a replay, run later, explaining 70 of the facade's 100
		sp("delta", 1, 2000, 2030),  // 2
		sp("delta", 1, 2030, 2050),  // 3
		sp("facade", -1, 100, 300),  // 4
		sp("engine", 4, 1070, 1220), // 5
	}
	self := selfNs(spans)
	for name, want := range map[string]float64{"facade": 300 - 220, "engine": 220 - 50, "delta": 50} {
		if got := self[name]; got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	// A span that ran while the CPU was 25% slow counts for less.
	slow := []span{{Name: "x", Parent: -1, Start: 0, End: 125, Slowdown: 1.25}}
	if got := selfNs(slow)["x"]; got != 100 {
		t.Errorf("calibrated self time = %v, want 100", got)
	}
}

// A sequential and a sharded backend order one timestamp group
// differently; the batch hash must not care, yet must see a record
// move to another timestamp, another query, or flip to an invalidation.
func TestBatchHashIgnoresOrderWithinATimestamp(t *testing.T) {
	a := rec{query: 0, from: "v1", to: "v2", ts: 5}
	b := rec{query: 1, from: "v3", to: "v4", ts: 5}
	c := rec{query: 0, from: "v1", to: "v9", ts: 6}
	hash := func(rs ...rec) uint64 {
		var h batchHash
		for _, r := range rs {
			h.add(r)
		}
		return h.done()
	}
	base := hash(a, b, c)
	if hash(b, a, c) != base {
		t.Error("order within one timestamp group changed the hash")
	}
	moved, other, flipped := c, a, b
	moved.ts, other.query, flipped.inv = 5, 2, true
	for name, h := range map[string]uint64{
		"timestamp": hash(a, b, moved), "query": hash(other, b, c), "invalidation": hash(a, flipped, c), "dropped": hash(a, c),
	} {
		if h == base {
			t.Errorf("a changed %s left the hash unchanged", name)
		}
	}
}

func TestCalibrationRescalesToReferenceSpeed(t *testing.T) {
	var c calibrator
	for i := 0; i < 2*smoothing+1; i++ {
		c.marks = append(c.marks, 1.25*refMark.Seconds()) // a machine running 25% slow
	}
	c.marks[smoothing] = 10 * refMark.Seconds() // one kernel run hit by an interrupt
	got := c.seconds(timing{raw: 125 * time.Millisecond, mark: smoothing})
	if math.Abs(got-0.100) > 1e-9 {
		t.Errorf("125 ms at 1.25x slowdown calibrates to %v s, want 0.100", got)
	}
}

func TestJudge(t *testing.T) {
	lower := contractMetric{Name: "result_p50_ms", Better: "lower", Bound: 0.10}
	higher := contractMetric{Name: "throughput_tps", Better: "higher", Bound: 0.07}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	noisy := []float64{10, 14, 8, 12, 9, 15}
	for _, c := range []struct {
		name string
		a, b []float64
		m    contractMetric
		want string
	}{
		{"slower latency", steady(10), steady(11.5), lower, "worse"},
		{"faster latency", steady(10), steady(8), lower, "within"},
		{"latency inside the bound", steady(10), steady(10.8), lower, "within"},
		{"lower throughput", steady(1000), steady(900), higher, "worse"},
		{"higher throughput", steady(1000), steady(1200), higher, "within"},
		{"spread wider than the bound", noisy, steady(10), lower, "unresolved"},
	} {
		if got := judge(c.a, c.b, c.m); got.verdict != c.want {
			t.Errorf("%s: verdict %q (change %+.3f), want %q", c.name, got.verdict, got.worse, c.want)
		}
	}
}
