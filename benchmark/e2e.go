package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamrpq"
	"streamrpq/internal/core"
)

// sizing is how much of everything one run does. The full sizing is
// fitted to the contract's time cap; quick is the smoke sizing of the
// test.
type sizing struct {
	setups   int // set-ups per run; setup_s and live_heap_mb are their medians
	recovers int // Recover calls per run; recover_s is their median
	cont     int // batches ingested after Recover and compared with the uninterrupted run
}

var (
	fullSizing  = sizing{setups: 3, recovers: 5, cont: 8}
	quickSizing = sizing{setups: 1, recovers: 1, cont: 2}
)

// quick shrinks a workload to a smoke test: same configuration, a few
// hundred tuples.
func (s spec) quick() spec {
	s.warm = s.batch * max(4, s.warm/s.batch/8)
	s.tuples = s.warm + 96*s.batch
	s.probe = 8 * s.batch
	s.oracle = min(s.oracle, 4*s.batch)
	s.walTail = 2
	return s
}

// run is the state of one benchmark run of one workload.
type run struct {
	s       spec
	sz      sizing
	seed    int64
	seconds float64
	outDir  string
	tmp     string
	cal     *calibrator
	rep     *report
	lap     time.Time
}

// phase closes the wall-clock lap of one phase of the run, so the
// report shows where a run's own time went.
func (r *run) phase(name string) {
	now := time.Now()
	if !r.lap.IsZero() {
		r.rep.Diagnostics["phase."+name+"_s"] += now.Sub(r.lap).Seconds()
	}
	r.lap = now
}

// checkTuples is the prefix whose result stream is hashed: the warm-up
// plus the batches the recovered evaluator repeats and continues.
func (r *run) checkTuples() int { return r.s.warm + (r.s.walTail+r.sz.cont)*r.s.batch }

// exactCounters are the engine counters that repeat exactly from run
// to run. The sharded backend's insert_calls drift by ≈0.01% (a probe
// saw 39,473,732 vs 39,471,593 on one input), so they are recorded but
// not gated there.
func exactCounters(st core.Stats, sharded bool) map[string]int64 {
	c := map[string]int64{
		"results":         st.Results,
		"invalidations":   st.Invalidations,
		"dispatches":      st.Dispatches,
		"relevance_skips": st.RelevanceSkips,
	}
	if !sharded {
		c["insert_calls"] = st.InsertCalls
	}
	return c
}

// instance is one set-up: the workload instance with its input and
// checks, what setting it up took (calibrated and raw seconds), and the
// live heap it holds.
type instance struct {
	sys      system
	in       *input
	ck       *checks
	cal, raw float64
	heapMB   float64
}

// setUp generates the input, builds the workload instance and ingests
// the warm-up prefix that fills the window.
func (r *run) setUp(i int) (*instance, error) {
	var ms runtime.MemStats
	var in *input
	gen, err := r.cal.timeOp(func() (err error) {
		in, err = generate(r.s, r.seed, r.s.tuples)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The heap reading just before construction excludes the input.
	// Twice: the first collection only queues finalizers and ages pools.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	// Only the set-up the run keeps collects the oracle's pairs: they
	// are the harness's memory, and would count as the system's.
	oracleTuples := 0
	if i == r.sz.setups-1 {
		oracleTuples = r.s.oracle
	}
	ck := newChecks(r.checkTuples(), oracleTuples)
	dir := ""
	if r.s.serve {
		dir = filepath.Join(r.tmp, fmt.Sprintf("setup%d", i))
	}
	// Only the calls into the system are on the clock; hashing the
	// check prefix between them is the harness's own work.
	var busy time.Duration
	m := r.cal.bracket()
	t0 := time.Now()
	sys, err := newSystem(r.s, in, ck, dir)
	busy += time.Since(t0)
	for lo := 0; err == nil && lo < r.s.warm; lo += r.s.batch {
		var tk ticket
		t0 = time.Now()
		tk, err = sys.send(lo, lo+r.s.batch)
		busy += time.Since(t0)
		r.rep.Attempted++
		if err == nil {
			_, err = sys.wait(tk)
		}
	}
	r.cal.bracket()
	if err != nil {
		r.rep.Failed++
		if sys != nil {
			sys.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return &instance{
		sys: sys, in: in, ck: ck,
		cal:    r.cal.seconds(gen) + r.cal.seconds(timing{raw: busy, mark: m}),
		raw:    (gen.raw + busy).Seconds(),
		heapMB: (float64(ms.HeapAlloc) - float64(before)) / (1 << 20),
	}, nil
}

// closedLoop sends the next batch only after the consumer holds the
// previous one's last record, for the given time (and at least
// minBatches, so the check prefix is always covered). It returns one
// timing per batch — send to last record — and the position reached.
func (r *run) closedLoop(sys system, in *input, pos int, seconds float64, minBatches int) ([]timing, int, error) {
	var ts []timing
	start := time.Now()
	for len(ts) < minBatches || time.Since(start).Seconds() < seconds {
		if pos+r.s.batch > len(in.tuples) {
			break // input exhausted: the run measured less than asked, never wrapped
		}
		m := r.cal.mark()
		t0 := time.Now()
		tk, err := sys.send(pos, pos+r.s.batch)
		r.rep.Attempted++
		var end time.Time
		if err == nil {
			end, err = sys.wait(tk)
		}
		if err != nil {
			r.rep.Failed++
			return ts, pos, fmt.Errorf("closed loop, batch at tuple %d: %w", pos, err)
		}
		ts = append(ts, timing{raw: end.Sub(t0), mark: m})
		pos += r.s.batch
	}
	r.cal.bracket()
	return ts, pos, nil
}

// openLoopPhase offers the fixed rate for the given time. A batch's
// latency runs from the instant it was due to the instant the
// subscriber has read its last record, queue wait included.
func (r *run) openLoopPhase(sys system, in *input, pos int, seconds float64) ([]timing, int, error) {
	n := int(seconds * float64(r.s.rate) / float64(r.s.batch))
	n = max(min(n, (len(in.tuples)-pos)/r.s.batch), r.s.walTail+r.sz.cont)
	interval := time.Duration(float64(time.Second) * float64(r.s.batch) / float64(r.s.rate))
	tickets := make([]ticket, n)
	marks := make([]int, n)
	var sendErr error
	due, late := openLoop(wallClock{}, n, interval, func(i int) {
		if sendErr != nil {
			return
		}
		marks[i] = r.cal.mark()
		tickets[i], sendErr = sys.send(pos+i*r.s.batch, pos+(i+1)*r.s.batch)
		r.rep.Attempted++
	})
	r.cal.bracket()
	ts := make([]timing, 0, n)
	end := make([]time.Time, 0, n)
	for i := 0; i < n && sendErr == nil; i++ {
		e, err := sys.wait(tickets[i])
		if err != nil {
			sendErr = err
			break
		}
		end = append(end, e)
		ts = append(ts, timing{raw: e.Sub(due[i]), mark: marks[i]})
	}
	if sendErr != nil {
		r.rep.Failed++
		return ts, pos, fmt.Errorf("open loop at %d tuples/s: %w", r.s.rate, sendErr)
	}
	var worst time.Duration
	for _, l := range late {
		worst = max(worst, l)
	}
	r.rep.Diagnostics["open_loop.rate_tps"] = float64(r.s.rate)
	r.rep.Diagnostics["open_loop.batches"] = float64(n)
	r.rep.Diagnostics["open_loop.generator_late_ms_max"] = worst.Seconds() * 1e3
	r.rep.Diagnostics["open_loop.backlog_max_batches"] = float64(maxBacklog(due, late, end))
	return ts, pos + n*r.s.batch, nil
}

// recoverPhase builds a persistent evaluator of the workload's
// configuration, ingests the warm-up, checkpoints, logs walTail more
// batches and abandons it. It then times Recover, and checks that the
// recovered evaluator continues exactly as the uninterrupted run did.
// Close is the abandon stand-in, as in the repo's own crash tests: it
// releases the file descriptors and the directory lock — which an
// in-process Recover needs — and writes nothing.
func (r *run) recoverPhase(in *input, want []uint64) ([]timing, error) {
	s := r.s
	s.serve = false
	dir := filepath.Join(r.tmp, "recover")
	ck := newChecks(r.checkTuples(), 0)
	p, err := newLibrary(s, in, ck, dir)
	if err != nil {
		return nil, err
	}
	tail := s.warm + s.walTail*s.batch
	err = p.feed(0, s.warm)
	if err == nil {
		err = p.ev.Checkpoint()
	}
	if err == nil {
		err = p.feed(s.warm, tail)
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("recover: preparing %s: %w", dir, err)
	}
	r.check("persisted run == uninterrupted run", equalHashes(ck.perBatch, clip(want, 0, tail/s.batch)))

	var ts []timing
	var ev *streamrpq.MultiEvaluator
	for i := 0; i < r.sz.recovers; i++ {
		if ev != nil {
			ev.Close()
		}
		var redelivered []streamrpq.BatchResult
		runtime.GC() // every Recover starts from a collected heap, not mid-cycle
		t, err := r.cal.timeOp(func() (err error) {
			ev, redelivered, err = streamrpq.Recover(dir, streamrpq.CheckpointEvery(checkpointEvery))
			return err
		})
		r.rep.Attempted++
		if err != nil {
			r.rep.Failed++
			return ts, fmt.Errorf("recover: %w", err)
		}
		if len(redelivered) != 0 {
			ev.Close()
			return ts, fmt.Errorf("recover: %d results redelivered although every batch was committed", len(redelivered))
		}
		ts = append(ts, t)
	}
	cont := adoptLibrary(in, ev, newChecks(r.checkTuples(), 0), s.batch)
	err = cont.feed(tail, r.checkTuples())
	if cerr := cont.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ts, fmt.Errorf("recover: continuing: %w", err)
	}
	r.check("post-Recover continuation == uninterrupted run", equalHashes(cont.ck.perBatch, clip(want, tail/s.batch, len(want))))
	return ts, nil
}

// clip is h[lo:hi] clipped to what h holds, so that a run cut short
// fails its comparison instead of panicking.
func clip(h []uint64, lo, hi int) []uint64 { return h[min(lo, len(h)):min(hi, len(h))] }

func equalHashes(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d batches hashed, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("batch %d: result hash %#x, want %#x", i, got[i], want[i])
		}
	}
	return nil
}

// check records one correctness check: an operation attempted, and
// failed if err is set.
func (r *run) check(name string, err error) {
	r.rep.Attempted++
	if err != nil {
		r.rep.Failed++
		r.rep.Errors = append(r.rep.Errors, name+": "+err.Error())
	}
}

// sequentialHash replays the check prefix through the default
// (sequential) facade: the stream identity a sharded run must match.
func (r *run) sequentialHash(in *input) (streamHash, error) {
	s := r.s
	s.shards, s.writers = 0, 0
	ck := newChecks(r.checkTuples(), 0)
	l, err := newLibrary(s, in, ck, "")
	if err != nil {
		return streamHash{}, err
	}
	defer l.close()
	err = l.feed(0, r.checkTuples())
	return ck.stream, err
}

// openShare is the share of the measured time serve-durable spends in
// its open loop; the closed loop gets the rest.
const openShare = 0.7

// endToEnd is the untraced run: every end-to-end metric of the
// workload, and the correctness gate.
func (r *run) endToEnd() error {
	r.phase("start")
	var setupCal, setupRaw, heaps []float64
	var it, first *instance
	var firstCounters map[string]int64
	for i := 0; i < r.sz.setups; i++ {
		if it != nil {
			if err := it.sys.close(); err != nil {
				return err
			}
			// Garbage before the next baseline reading, not during it;
			// first keeps only the hashes.
			it.sys, it.in = nil, nil
		}
		var err error
		if it, err = r.setUp(i); err != nil {
			return err
		}
		setupCal, setupRaw, heaps = append(setupCal, it.cal), append(setupRaw, it.raw), append(heaps, it.heapMB)
		r.rep.Diagnostics[fmt.Sprintf("setup_s.%d", i)] = it.cal
		r.rep.Diagnostics[fmt.Sprintf("live_heap_mb.%d", i)] = it.heapMB
		// Two set-ups of one input are two runs of one stream: the result
		// stream and the exact counters must repeat.
		counters := exactCounters(it.sys.stats(), r.s.shards > 0)
		if first == nil {
			first, firstCounters = it, counters
			continue
		}
		r.check("result stream repeats across set-ups", equalHashes(it.ck.perBatch, first.ck.perBatch))
		for name, v := range counters {
			var err error
			if v != firstCounters[name] {
				err = fmt.Errorf("%d, then %d on the same input", firstCounters[name], v)
			}
			r.check("exact counter "+name+" repeats", err)
		}
	}
	sys, in, ck := it.sys, it.in, it.ck
	defer func() { sys.close() }()
	r.phase("setup")
	r.rep.metric("setup_s", median(setupCal), "s", median(setupRaw), len(setupCal))
	r.rep.metric("live_heap_mb", median(heaps), "MB", median(heaps), len(heaps))
	r.rep.Sizes["dataset_tuples"] = len(in.tuples)
	r.rep.Sizes["queries"] = len(in.queries)
	r.rep.Sizes["warmup_tuples"] = r.s.warm
	r.rep.Sizes["batch_tuples"] = r.s.batch

	// Measured segment. The server gets its open loop first; the closed
	// loop gives throughput, and for the library workloads latency too.
	pos := r.s.warm
	closedSeconds := r.seconds
	var latency []timing
	var err error
	if r.s.serve {
		closedSeconds = (1 - openShare) * r.seconds
		if latency, pos, err = r.openLoopPhase(sys, in, pos, openShare*r.seconds); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	minBatches := max(0, (r.checkTuples()-pos)/r.s.batch)
	closed, end, err := r.closedLoop(sys, in, pos, closedSeconds, minBatches)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	tuples := end - pos
	if latency == nil {
		latency = closed
	}
	calClosed, rawClosed := r.cal.both(closed)
	r.rep.metric("throughput_tps", float64(tuples)/sum(calClosed), "1/s", float64(tuples)/sum(rawClosed), len(closed))
	r.rep.metric("allocs_per_tuple", float64(ms.Mallocs-mallocs)/float64(tuples), "count", float64(ms.Mallocs-mallocs)/float64(tuples), tuples)
	calLat, rawLat := r.cal.both(latency)
	r.rep.metric("result_p50_ms", 1e3*median(calLat), "ms", 1e3*median(rawLat), len(latency))
	r.rep.metric("result_p95_ms", 1e3*quantile(calLat, 0.95), "ms", 1e3*quantile(rawLat, 0.95), len(latency))
	if q := supportedTail(len(latency)); q > 0 {
		// The highest percentile with at least ten samples beyond it.
		r.rep.Diagnostics["result_tail_percentile"] = 100 * q
		r.rep.Diagnostics["result_tail_ms"] = 1e3 * quantile(calLat, q)
	}
	r.rep.Sizes["measured_tuples"] = tuples
	r.rep.Sizes["measured_batches"] = len(closed)
	r.rep.Diagnostics["records_per_tuple"] = float64(ck.records) / float64(end)
	r.phase("measure")
	var slow []float64
	for i := range r.cal.marks {
		slow = append(slow, r.cal.slowdown(i))
	}
	r.rep.Diagnostics["cpu_slowdown_median"] = median(slow)
	r.rep.Diagnostics["cpu_slowdown_max"] = quantile(slow, 1)

	recovers, err := r.recoverPhase(in, ck.perBatch)
	if err != nil {
		return err
	}
	r.phase("recover")
	calRec, rawRec := r.cal.both(recovers)
	for i, v := range calRec {
		r.rep.Diagnostics[fmt.Sprintf("recover_s.%d", i)] = v
	}
	r.rep.metric("recover_s", median(calRec), "s", median(rawRec), len(recovers))

	// Correctness gate on the stream the measured instance produced.
	r.rep.Stream = ck.stream
	r.check("distinct pairs == rescan baseline", oracle(r.s, in, r.s.oracle, ck.pairs))
	r.rep.Sizes["oracle_tuples"] = r.s.oracle
	r.rep.Sizes["oracle_pairs"] = len(ck.pairs)
	r.rep.Sizes["hashed_tuples"] = r.checkTuples()
	if r.s.shards > 0 {
		seq, err := r.sequentialHash(in)
		if err == nil && seq != ck.stream {
			err = fmt.Errorf("sharded stream %+v, sequential stream %+v", ck.stream, seq)
		}
		r.check("sharded result hash == sequential result hash", err)
	}
	r.phase("verify")
	return nil
}

// checkGolden compares the run's stream identity with the recorded
// one; it applies to the default seed at full size only.
func (r *run) checkGolden(path string) {
	g, err := loadGolden(path)
	if err != nil {
		r.check("golden", err)
		return
	}
	if g.Seed != r.seed {
		return
	}
	want, ok := g.Workloads[r.s.name]
	if !ok {
		r.check("golden", fmt.Errorf("no entry for %s in %s", r.s.name, path))
		return
	}
	if want != r.rep.Stream {
		err = fmt.Errorf("result stream %+v, golden %+v", r.rep.Stream, want)
	}
	r.check("result stream == golden", err)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}
