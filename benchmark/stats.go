package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact q-quantile of the raw samples (nearest
// rank on a sorted copy), not a bucketed estimate.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of the q-quantile among n
// sorted samples. The epsilon keeps 0.95×200 = 190.00000000000003 from
// rounding a rank up.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailLadder is the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90}

// supportedTail returns the highest percentile of the ladder that has
// at least ten samples beyond it, or 0 if not even the lowest has.
func supportedTail(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// spread is the distance between the first and third quartile as a
// share of the median, the way the driver takes it
// (statistics.quantiles(values, n=4): exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 { // exclusive method: position p*(n+1), clamped
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}

// Machine-speed calibration.
//
// The box this harness was sized on does not run at one speed. For
// seconds at a time its clock drops by ≈25% (a dependent multiply-add
// chain takes 95 µs or 120 µs), and for minutes at a time something
// sharing the core slows map- and pointer-heavy code by 10–25% while
// the arithmetic chain notices nothing; no steal time is reported for
// either. Raw timings of one commit therefore spread by ≈10% between
// runs and drift by up to ≈20% between two sets of runs, which would
// hide every regression the bounds are meant to catch.
//
// So every timed operation is bracketed by runs of a small fixed
// kernel (outside the timed interval), and its duration is rescaled to
// the reference speed: calibrated = raw × refMark ÷ local kernel time.
// The kernel is half dependent arithmetic, which follows the clock,
// and half breadth-first searches over a map-of-slices graph, which —
// like the engine — also feel what shares the core's ports and caches.
// It shares no code with the system under test, so a regression there
// cannot hide in it. On the sizing probes the arithmetic half alone cut
// the run-to-run spread of the mean batch latency from ≈10% to ≈3%
// under clock changes, and the search half tracked the slow drift the
// arithmetic missed (per-minute range of a fixed work unit: 26–39% raw,
// 16–19% rescaled). Raw values are kept beside the calibrated ones in
// the report. Counts, bytes and allocations are never rescaled.

// refMark is what one kernel run takes on the reference box in its
// fast, undisturbed state. It only fixes the unit: every comparison is
// between values rescaled with the same constant.
const refMark = 79 * time.Microsecond

const (
	chainSteps   = 50_000 // dependent multiply-adds per kernel run
	twinVertices = 20_000 // vertices of the kernel's random graph, 4 edges each
	twinVisits   = 400    // vertices one search visits
	twinSearches = 4      // searches per kernel run
)

// kernel is the calibration kernel's state: a fixed random graph and
// the scratch space of its searches, reused so that calibration does
// not allocate.
type kernel struct {
	adj   map[uint32][]uint32
	seen  map[uint32]struct{}
	queue []uint32
	next  uint32
	chain uint64
}

func newKernel() *kernel {
	k := &kernel{adj: make(map[uint32][]uint32, twinVertices), seen: make(map[uint32]struct{}, twinVisits), chain: 1}
	x := uint64(88172645463325252) // xorshift64: the graph is the same in every process
	for i := 0; i < 4*twinVertices; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a, b := uint32(x%twinVertices), uint32((x>>32)%twinVertices)
		k.adj[a] = append(k.adj[a], b)
	}
	return k
}

// run executes the kernel once and returns how long it took. The
// searches run once untimed first, so the timed pass finds the graph in
// cache whatever the system under test left there: the kernel must
// measure the machine, not the engine's cache footprint.
func (k *kernel) run() time.Duration {
	k.next = (k.next*2654435761 + 12345) % twinVertices
	k.searches()
	t0 := time.Now()
	x := k.chain
	for i := 0; i < chainSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	k.chain = x
	k.searches()
	return time.Since(t0)
}

func (k *kernel) searches() {
	for s := uint32(0); s < twinSearches; s++ {
		start := (k.next + s*7919) % twinVertices
		clear(k.seen)
		k.queue = append(k.queue[:0], start)
		k.seen[start] = struct{}{}
		for head := 0; head < len(k.queue) && len(k.seen) < twinVisits; head++ {
			for _, w := range k.adj[k.queue[head]] {
				if _, ok := k.seen[w]; !ok {
					k.seen[w] = struct{}{}
					k.queue = append(k.queue, w)
				}
			}
		}
	}
}

// calibrator keeps the kernel runs of one process in time order. A
// timed operation remembers the index of the mark taken just before it.
type calibrator struct {
	k     *kernel
	marks []float64 // seconds
}

func newCalibrator() *calibrator { return &calibrator{k: newKernel()} }

func (c *calibrator) mark() int {
	c.marks = append(c.marks, c.k.run().Seconds())
	return len(c.marks) - 1
}

// bracket takes a run of marks on one side of a long operation and
// returns the index of the last.
func (c *calibrator) bracket() int {
	for i := 1; i < smoothing; i++ {
		c.mark()
	}
	return c.mark()
}

// smoothing is how many marks on each side of an operation's own mark
// enter the median: single kernel runs are hit by interrupts and GC
// workers, the machine's speed itself changes over seconds.
const smoothing = 6

// slowdown is the local slowdown around mark i relative to the
// reference speed.
func (c *calibrator) slowdown(i int) float64 {
	lo, hi := max(0, i-smoothing), min(len(c.marks), i+smoothing+1)
	return median(c.marks[lo:hi]) / refMark.Seconds()
}

// timing is one timed operation: its wall duration and the mark taken
// just before it.
type timing struct {
	raw  time.Duration
	mark int
}

// seconds returns the calibrated duration.
func (c *calibrator) seconds(t timing) float64 {
	return t.raw.Seconds() / c.slowdown(t.mark)
}

// timeOp brackets one long operation with marks on both sides.
func (c *calibrator) timeOp(f func() error) (timing, error) {
	m := c.bracket()
	t0 := time.Now()
	err := f()
	t := timing{raw: time.Since(t0), mark: m}
	c.bracket()
	return t, err
}

// both returns the calibrated and raw values of a set of timings, in
// seconds.
func (c *calibrator) both(ts []timing) (cal, raw []float64) {
	for _, t := range ts {
		cal = append(cal, c.seconds(t))
		raw = append(raw, t.raw.Seconds())
	}
	return cal, raw
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
