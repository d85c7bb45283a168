package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"streamrpq"
	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/pattern"
	"streamrpq/internal/persist"
	"streamrpq/internal/shard"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// The traced run. From outside, a facade call is opaque, so after
// running the workload's evaluator over a fixed probe segment under
// spans, the run replays each layer in isolation on the same generated
// input — the warm-up untimed, then the same segment under spans — and
// attributes time by subtraction. The approximations:
//
//   - core.delta replays every distinct Δ-index group as a standalone
//     core.RAPQ fed the tuples a coordinator would hand it, one group
//     at a time over a private snapshot graph that holds only that
//     group's labels. Inside a coordinator the groups interleave per
//     tuple and scan the shared graph of every label, so core.delta
//     understates the Δ work there and the *_self_* differences carry
//     the rest (on so-dense, a third of the coordinator's time);
//   - the replays run after the facade run, with colder caches for the
//     input and warmer ones for the code;
//   - a sharded engine's time is wall time of two shards, so only the
//     inline engine (one shard, depth 1, one writer) is compared with
//     the sequential Δ total.
//
// Counters are read at the same boundaries as the spans, so ratios are
// counted where the work happens. All numbers of the traced run are
// per-layer diagnostics; end-to-end numbers come only from the
// untraced run.
type tracer struct {
	*run
	in     *input
	rec    *recorder
	lo, hi int // the probe segment: tuples [lo, hi)
	facade int // first span of the facade run; batch b's is facade+b
	wspec  window.Spec
	bounds []*automaton.Bound // per query, registration order
	groups []*automaton.Bound // distinct Δ-index groups
}

func (t *tracer) put(name string, v float64, unit string) { t.rep.metric(name, v, unit, v, t.tuples()) }
func (t *tracer) tuples() int                             { return t.hi - t.lo }
func (t *tracer) batches() int                            { return t.tuples() / t.s.batch }
func (t *tracer) ids(lo, hi int) []stream.Tuple           { return t.in.tuples[lo:hi] }

// replay feeds the warm-up through f untimed, then the probe segment
// batch by batch, each call under one span caused by parent(batch). It
// returns the calibrated seconds the segment took and the index of its
// first span; batch b's span is first+b.
func (t *tracer) replay(name string, parent func(b int) int, f func(lo, hi int) error) (sec float64, first int, err error) {
	for lo := 0; lo < t.lo; lo += t.s.batch {
		if err := f(lo, lo+t.s.batch); err != nil {
			return 0, 0, fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	return t.segment(name, parent, f)
}

func (t *tracer) segment(name string, parent func(b int) int, f func(lo, hi int) error) (sec float64, first int, err error) {
	from := len(t.rec.spans)
	for b, lo := 0, t.lo; lo < t.hi; b, lo = b+1, lo+t.s.batch {
		id := t.rec.begin(name, parent(b), b)
		err := f(lo, lo+t.s.batch)
		t.rec.end(id)
		t.rep.Attempted++
		if err != nil {
			t.rep.Failed++
			return 0, 0, fmt.Errorf("%s: batch %d: %w", name, b, err)
		}
	}
	t.rec.settle(from)
	var ns float64
	for _, s := range t.rec.spans[from:] {
		ns += s.ns()
	}
	return ns / 1e9, from, nil
}

// once runs f under one root span and returns its calibrated
// nanoseconds.
func (t *tracer) once(name string, f func()) float64 {
	id := t.rec.begin(name, -1, -1)
	f()
	t.rec.end(id)
	t.rec.settle(id)
	return t.rec.spans[id].ns()
}

func root(int) int { return -1 }

// under makes the spans of a segment whose first span is first the
// parents of another segment's, batch by batch.
func under(first int) func(int) int { return func(b int) int { return first + b } }

// traced runs the traced run of one workload.
func (r *run) traced() error {
	t := &tracer{run: r, wspec: window.Spec{Size: r.s.window, Slide: r.s.slide}}
	var err error
	if t.in, err = generate(r.s, r.seed, r.s.tuples); err != nil {
		return err
	}
	probe := max(r.s.batch, int(float64(r.s.probe)*r.seconds/defaultSeconds)/r.s.batch*r.s.batch)
	t.lo, t.hi = r.s.warm, r.s.warm+probe
	if t.hi > len(t.in.tuples) {
		return fmt.Errorf("probe segment of %d tuples does not fit the %d generated", probe, len(t.in.tuples))
	}
	t.rec = newRecorder(r.cal, 64*t.batches()+1024)
	r.rep.Sizes["dataset_tuples"] = len(t.in.tuples)
	r.rep.Sizes["queries"] = len(t.in.queries)
	r.rep.Sizes["warmup_tuples"] = r.s.warm
	r.rep.Sizes["probe_tuples"] = probe
	r.rep.Sizes["batch_tuples"] = r.s.batch

	steps := []func() error{
		t.automata, // first: compilation is memoized per process
		t.facadeRun,
		t.coreLayer,
		t.shardLayer,
		t.graphLayer,
		t.streamLayer,
		t.addQuery,
		t.persistLayer,
		t.serveLayer,
	}
	r.phase("start")
	for i, step := range steps {
		if err := step(); err != nil {
			return err
		}
		r.phase([]string{"automata", "facade", "core", "shard", "graph", "stream", "add_query", "persist", "serve"}[i])
	}
	return t.rec.write(filepath.Join(r.outDir, "trace-"+r.s.name+".json"))
}

// automata times query compilation and binding cold, the way
// registration pays for them.
func (t *tracer) automata() error {
	dfas := make([]*automaton.DFA, len(t.in.queries))
	var err error
	compile := t.once("automaton.Compile", func() {
		for i, text := range t.in.queries {
			var expr *pattern.Expr
			if expr, err = pattern.Parse(text); err != nil {
				err = fmt.Errorf("query %q: %w", text, err)
				return
			}
			dfas[i] = automaton.Compile(pattern.Simplify(expr))
		}
	})
	if err != nil {
		return err
	}
	states := 0
	seen := map[string]bool{}
	bind := t.once("automaton.Bind", func() {
		for _, d := range dfas {
			b := d.Bind(t.in.labelID, len(t.in.labels))
			t.bounds = append(t.bounds, b)
			states += b.K
			if fp := b.Fingerprint(); !seen[fp] {
				seen[fp] = true
				t.groups = append(t.groups, b)
			}
		}
	})
	n := float64(len(t.in.queries))
	t.put("automaton.compile_us_per_query", compile/1e3/n, "us")
	t.put("automaton.bind_us_per_query", bind/1e3/n, "us")
	t.put("automaton.states_total", float64(states), "count")
	t.put("automaton.distinct_groups", float64(len(t.groups)), "count")
	return nil
}

// facadeRun drives the workload's evaluator — through the facade, with
// the WAL on the path where the workload is durable — over the probe
// segment: the spans every replay below explains.
func (t *tracer) facadeRun() error {
	dir := ""
	if t.s.serve {
		dir = filepath.Join(t.tmp, "facade")
	}
	ck := newChecks(0, 0)
	l, err := newLibrary(t.s, t.in, ck, dir)
	if err != nil {
		return err
	}
	defer l.close()
	var warmRecords int64
	sec, first, err := t.replay("facade.IngestBatch", root, func(lo, hi int) error {
		if lo == t.lo {
			warmRecords = ck.records
		}
		return l.feed(lo, hi)
	})
	if err != nil {
		return err
	}
	t.facade = first
	results := ck.records - warmRecords
	// What recording costs inside a span — two clock reads and a store,
	// measured on an empty span — against the mean facade span.
	empty := t.once("recorder (empty span)", func() {})
	t.put("trace.overhead_frac", empty/(1e9*sec/float64(t.batches())), "frac")
	n := float64(t.tuples())
	t.put("facade.ingest_ns_per_tuple", 1e9*sec/n, "ns")
	t.put("facade.results_per_tuple", float64(results)/n, "count")
	return nil
}

// coreLayer replays the Δ-index groups standalone (core.delta) and the
// sequential coordinator over pre-encoded tuples (core.multi).
func (t *tracer) coreLayer() error {
	// core.Multi: the sequential backend the default facade wraps.
	multi, err := core.NewMulti(t.wspec)
	if err != nil {
		return err
	}
	if t.s.dynamic {
		if err := multi.SetRetainAll(true); err != nil {
			return err
		}
	}
	for _, b := range t.bounds {
		if _, err := multi.Add(b, core.WithSink(&core.CountingSink{})); err != nil {
			return err
		}
	}
	// The blocking chain is facade ⊃ coordinator ⊃ Δ; the sequential
	// coordinator is the facade's child only where the facade runs it.
	parent := root
	if t.s.shards == 0 {
		parent = under(t.facade)
	}
	multiSec, multiFirst, err := t.replay("core.Multi.Process", parent, func(lo, hi int) error {
		for _, tu := range t.ids(lo, hi) {
			multi.Process(tu)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.check("core.Multi: DeadVersions()==0 at quiescence", deadVersions(multi.Graph()))

	// core.delta: every distinct group as a standalone engine.
	var deltaSec, expiryMS, deleteSec float64
	var calls, hottest, expiryRuns, deletes int64
	var trees, nodes int
	for _, b := range t.groups {
		eng := core.NewRAPQ(b, t.wspec, core.WithSink(&core.CountingSink{}))
		var before core.Stats
		lastSlide := int64(-1)
		sec, _, err := t.replay("core.RAPQ.Process", under(multiFirst), func(lo, hi int) error {
			if lo == t.lo {
				before = eng.Stats()
			}
			// The tuples a coordinator hands this group: those of its
			// alphabet, and the first of every slide (the expiry pass).
			for _, tu := range t.ids(lo, hi) {
				if slide := tu.TS / t.s.slide; slide != lastSlide || eng.RelevantLabel(tu.Label) {
					lastSlide = slide
					eng.Process(tu)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		st := eng.Stats()
		deltaSec += sec
		n := st.InsertCalls - before.InsertCalls
		calls += n
		hottest = max(hottest, n)
		expiryRuns += st.ExpiryRuns - before.ExpiryRuns
		expiryMS += (st.ExpiryTime - before.ExpiryTime).Seconds() * 1e3
		trees += st.Trees
		nodes += st.Nodes

		// Explicit deletions of the newest relevant edges, one by one.
		last := t.in.tuples[t.hi-1].TS
		deleteSec += t.once("core.RAPQ.Process (delete)", func() {
			for _, tu := range t.ids(t.hi-t.s.batch, t.hi) {
				if tu.Op == stream.Insert && eng.RelevantLabel(tu.Label) {
					tu.Op, tu.TS = stream.Delete, last
					eng.Process(tu)
					deletes++
				}
			}
		}) / 1e9
	}
	n := float64(t.tuples())
	t.put("core.delta_ns_per_tuple", 1e9*deltaSec/n, "ns")
	t.put("core.insert_calls_per_tuple", float64(calls)/n, "count")
	t.put("core.ns_per_insert_call", 1e9*deltaSec/float64(max(calls, 1)), "ns")
	t.put("core.expiry_ms", expiryMS, "ms")
	t.put("core.expiry_runs", float64(expiryRuns), "count")
	t.put("core.delete_us_per_delete", 1e6*deleteSec/float64(max(deletes, 1)), "us")
	t.put("core.trees", float64(trees), "count")
	t.put("core.nodes", float64(nodes), "count")
	t.put("core.hot_group_share", float64(hottest)/float64(max(calls, 1)), "frac")
	t.put("core.multi_ns_per_tuple", 1e9*multiSec/n, "ns")

	t.put("core.multi_self_ns_per_tuple", selfNs(t.rec.spans)["core.Multi.Process"]/n, "ns")
	return nil
}

func deadVersions(g *graph.Graph) error {
	if n := g.DeadVersions(); n != 0 {
		return fmt.Errorf("%d dead versions retained", n)
	}
	return nil
}

// engine builds a shard.Engine over the workload's queries.
func (t *tracer) engine(queries bool, opts ...shard.Option) (*shard.Engine, error) {
	eng, err := shard.New(t.wspec, opts...)
	if err != nil {
		return nil, err
	}
	if t.s.dynamic || !queries {
		if err := eng.SetRetainAll(true); err != nil {
			eng.Close()
			return nil, err
		}
	}
	for i := 0; queries && i < len(t.bounds); i++ {
		if _, err := eng.Add(t.bounds[i], nil); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// shardLayer replays the sharded engine over pre-encoded tuples with
// nil sinks: inline (one shard, depth 1, one writer — the comparator
// of the sequential coordinator) and parallel (two shards, two
// writers, default depth — the so-dense-sharded configuration).
func (t *tracer) shardLayer() error {
	type outcome struct {
		sec   float64
		stats core.Stats
		skew  float64
	}
	runEngine := func(name string, parent func(int) int, opts ...shard.Option) (o outcome, err error) {
		eng, err := t.engine(true, opts...)
		if err != nil {
			return o, err
		}
		defer eng.Close()
		var before core.Stats
		o.sec, _, err = t.replay(name, parent, func(lo, hi int) error {
			if lo == t.lo {
				before = eng.Stats()
			}
			_, err := eng.ProcessBatch(t.ids(lo, hi))
			return err
		})
		if err != nil {
			return o, err
		}
		t.check(name+": DeadVersions()==0 at quiescence", deadVersions(eng.Graph()))
		o.stats = eng.Stats()
		o.stats.Dispatches -= before.Dispatches
		o.stats.RelevanceSkips -= before.RelevanceSkips
		var most, total int64
		shards := eng.ShardStats()
		for _, st := range shards {
			most, total = max(most, st.InsertCalls), total+st.InsertCalls
		}
		o.skew = float64(most) * float64(len(shards)) / float64(max(total, 1))
		return o, nil
	}
	inline, err := runEngine("shard.Engine.ProcessBatch (inline)", root,
		shard.WithShards(1), shard.WithPipelineDepth(1), shard.WithWriters(1))
	if err != nil {
		return err
	}
	parent := root
	if t.s.shards > 0 {
		parent = under(t.facade)
	}
	par, err := runEngine("shard.Engine.ProcessBatch", parent, shard.WithShards(2), shard.WithWriters(2))
	if err != nil {
		return err
	}
	n := float64(t.tuples())
	delta := t.rep.Metrics["core.delta_ns_per_tuple"].Value
	t.put("shard.engine_ns_per_tuple", 1e9*par.sec/n, "ns")
	t.put("shard.self_ns_per_tuple", 1e9*inline.sec/n-delta, "ns")
	t.put("shard.dispatches_per_tuple", float64(inline.stats.Dispatches)/n, "count")
	t.put("shard.relevance_skip_frac", float64(inline.stats.RelevanceSkips)/float64(max(inline.stats.Dispatches+inline.stats.RelevanceSkips, 1)), "frac")
	t.put("shard.insert_call_skew", par.skew, "ratio")
	// On one core the two shards take turns; the ratio is still what
	// was measured, and the machine metadata says how many cores ran it.
	t.put("shard.parallel_speedup", inline.sec/par.sec, "ratio")
	// The facade's children — the coordinator it runs — are all recorded
	// by now, whichever backend that is.
	t.put("facade.self_ns_per_tuple", selfNs(t.rec.spans)["facade.IngestBatch"]/n, "ns")
	return nil
}

// graphLayer measures the shared snapshot graph with no query
// registered: epoch construction through the sharded coordinator
// (Applier Plan*/Flush/AdvanceEpoch plus window expiry, the workload's
// writer count), raw expiry, and half-edge scans over the final window.
func (t *tracer) graphLayer() error {
	eng, err := t.engine(false, shard.WithShards(1), shard.WithWriters(max(1, t.s.writers)))
	if err != nil {
		return err
	}
	defer eng.Close()
	sec, _, err := t.replay("graph.Applier (no queries)", root, func(lo, hi int) error {
		_, err := eng.ProcessBatch(t.ids(lo, hi))
		return err
	})
	if err != nil {
		return err
	}
	g := eng.Graph()
	t.check("graph.Applier: DeadVersions()==0 at quiescence", deadVersions(g))
	t.put("graph.apply_ns_per_tuple", 1e9*sec/float64(t.tuples()), "ns")
	t.put("graph.window_edges", float64(g.NumEdges()), "count")

	// Scans: every vertex's out- and in-slab at the current epoch,
	// repeated until enough half-edges were read to time.
	var buf []graph.HalfEdge
	halves := 0
	scan := t.once("graph.AppendOutAt+AppendInAt", func() {
		for halves < 1_000_000 {
			ep, top := g.Epoch(), g.VertexUpperBound()
			seen := halves
			for v := stream.VertexID(0); v < top; v++ {
				buf = g.AppendOutAt(ep, v, buf[:0])
				halves += len(buf)
				buf = g.AppendInAt(ep, v, buf[:0])
				halves += len(buf)
			}
			if halves == seen {
				break // empty window
			}
		}
	})
	t.put("graph.scan_ns_per_halfedge", scan/float64(max(halves, 1)), "ns")

	// Raw expiry on a private graph: Graph.Expire at every slide.
	plain := graph.New()
	win := window.NewManager(t.wspec)
	var expire time.Duration
	removed := 0
	m := t.cal.bracket()
	for _, tu := range t.ids(0, t.hi) {
		if deadline, due := win.Observe(tu.TS); due {
			t0 := time.Now()
			removed += plain.Expire(deadline, nil)
			expire += time.Since(t0)
		}
		if tu.Op == stream.Delete {
			plain.Delete(tu.Key())
		} else {
			plain.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		}
	}
	t.cal.bracket()
	t.put("graph.expire_ns_per_edge", 1e9*t.cal.seconds(timing{raw: expire, mark: m})/float64(max(removed, 1)), "ns")
	return nil
}

// streamLayer measures the dictionary and the binary stream codec.
func (t *tracer) streamLayer() error {
	vertices, labels := stream.NewDict(), stream.NewDict()
	sec, _, err := t.replay("stream.Dict.ID", root, func(lo, hi int) error {
		for _, tu := range t.ids(lo, hi) {
			vertices.ID(t.in.names[tu.Src])
			vertices.ID(t.in.names[tu.Dst])
			labels.ID(t.in.labels[tu.Label])
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.put("stream.dict_ns_per_lookup", 1e9*sec/float64(3*t.tuples()), "ns")
	t.put("stream.dict_entries", float64(vertices.Len()+labels.Len()), "count")

	var encoded bytes.Buffer
	w, err := stream.NewBinaryWriter(&encoded, t.in.labels)
	if err != nil {
		return err
	}
	for _, tu := range t.ids(t.lo, t.hi) {
		if err := w.Write(tu); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	decoded := 0
	decode := t.once("stream.BinaryReader.Read", func() {
		var rd *stream.BinaryReader
		rd, err = stream.NewBinaryReader(&encoded)
		for err == nil {
			if _, err = rd.Read(); err == nil {
				decoded++
			}
		}
	})
	if err != io.EOF || decoded != t.tuples() {
		return fmt.Errorf("stream.BinaryReader: decoded %d of %d tuples: %v", decoded, t.tuples(), err)
	}
	t.put("stream.binary_decode_ns_per_tuple", decode/float64(decoded), "ns")

	// The lines are rendered beforehand: only ParseTuple is on the clock.
	lines := strings.Split(strings.TrimSpace(string(t.in.text(nil, t.lo, t.hi))), "\n")
	sec, _, err = t.segment("streamrpq.ParseTuple", root, func(lo, hi int) error {
		for _, ln := range lines[lo-t.lo : hi-t.lo] {
			if _, err := streamrpq.ParseTuple(ln); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.put("facade.parse_ns_per_tuple", 1e9*sec/float64(t.tuples()), "ns")
	return nil
}

// addQuery registers a fresh recursive query mid-stream on a retain-all
// evaluator of the workload's backend: the AddQuery call plus the next
// IngestBatch, at whose boundary the registration takes effect.
func (t *tracer) addQuery() error {
	s := t.s
	s.dynamic, s.serve = true, false
	l, err := newLibrary(s, t.in, newChecks(0, 0), "")
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.feed(0, t.lo); err != nil {
		return err
	}
	labels := t.in.labels
	q, err := streamrpq.Compile(fmt.Sprintf("(%s/%s)+", labels[0], labels[1]))
	if err != nil {
		return err
	}
	ns := t.once("MultiEvaluator.AddQuery + IngestBatch", func() {
		if _, err = l.ev.AddQuery(q); err == nil {
			_, err = l.send(t.lo, t.lo+s.batch)
		}
	})
	t.rep.Attempted++
	if err != nil {
		t.rep.Failed++
		return fmt.Errorf("AddQuery: %w", err)
	}
	t.put("facade.add_query_ms", ns/1e6, "ms")
	return nil
}

// persistLayer measures the durability layer: a checkpoint of the
// warmed-up state through the facade, then persist.Manager directly —
// open, WAL replay with no engine behind it, snapshot write, and WAL
// appends of the probe segment.
func (t *tracer) persistLayer() error {
	s := t.s
	s.serve = false
	dir := filepath.Join(t.tmp, "persist")
	l, err := newLibrary(s, t.in, newChecks(0, 0), dir)
	if err != nil {
		return err
	}
	err = l.feed(0, t.lo)
	var ckpt timing
	if err == nil {
		ckpt, err = t.cal.timeOp(l.ev.Checkpoint)
	}
	if err == nil {
		err = l.feed(t.lo, t.hi)
	}
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	t.put("persist.snapshot_ms", 1e3*t.cal.seconds(ckpt), "ms")

	var mgr *persist.Manager
	var snap *persist.Snapshot
	open, err := t.cal.timeOp(func() (err error) {
		mgr, snap, err = persist.Open(dir, persist.Options{})
		return err
	})
	if err != nil {
		return err
	}
	replayed := 0
	replay, err := t.cal.timeOp(func() error {
		return mgr.Replay(func(rec *persist.WalRecord) error {
			replayed += len(rec.Tuples)
			return nil
		})
	})
	if cerr := mgr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if replayed != t.tuples() {
		return fmt.Errorf("persist: WAL replay yields %d tuples, %d were logged behind the checkpoint", replayed, t.tuples())
	}
	info, err := os.Stat(persist.SnapshotPath(dir, snap.Gen))
	if err != nil {
		return err
	}
	t.put("persist.snapshot_mb", float64(info.Size())/(1<<20), "MB")
	t.put("persist.open_ms", 1e3*t.cal.seconds(open), "ms")
	t.put("persist.replay_ms_per_1k_tuples", 1e6*t.cal.seconds(replay)/float64(replayed), "ms")

	// WAL appends alone: one batch record and one commit record per
	// batch, as the facade writes them, no fsync.
	dir2 := filepath.Join(t.tmp, "wal")
	wal, err := persist.Create(dir2, persist.Options{})
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := wal.WriteSnapshot(snap); err != nil {
		return err
	}
	sec, _, err := t.segment("persist.Manager.AppendBatch+AppendCommit", root, func(lo, hi int) error {
		ids := t.ids(lo, hi)
		if err := wal.AppendBatch(nil, nil, ids); err != nil {
			return err
		}
		return wal.AppendCommit(ids[len(ids)-1].TS, 0)
	})
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	segments, err := filepath.Glob(filepath.Join(dir2, "wal-*.log"))
	if err != nil {
		return err
	}
	var walBytes int64
	for _, path := range segments {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		walBytes += info.Size()
	}
	t.put("persist.wal_append_us_per_batch", 1e6*sec/float64(t.batches()), "us")
	t.put("persist.wal_bytes_per_tuple", float64(walBytes)/float64(t.tuples()), "B")
	return nil
}

// serveLayer measures the serving layer over the workload's evaluator:
// Broker.Ingest called directly and POST /ingest round trips on
// alternating batches, with one NDJSON subscriber attached.
func (t *tracer) serveLayer() error {
	dir := ""
	if t.s.serve {
		dir = filepath.Join(t.tmp, "serve")
	}
	v, err := newServed(t.s, t.in, newChecks(0, 0), dir)
	if err != nil {
		return err
	}
	defer v.close()
	broker := v.srv.Broker()
	var buf []streamrpq.Tuple
	direct := func(lo, hi int) (ticket, error) {
		buf = t.in.facade(buf, lo, hi)
		rep, err := broker.Ingest(buf)
		return ticket{hi: hi, records: rep.Records, sent: time.Now()}, err
	}
	for lo := 0; lo < t.lo; lo += t.s.batch {
		tk, err := direct(lo, lo+t.s.batch)
		if err == nil {
			_, err = v.wait(tk)
		}
		if err != nil {
			return fmt.Errorf("serve: warm-up: %w", err)
		}
	}
	bytesBefore, recordsBefore := v.wire()
	from := len(t.rec.spans)
	published := 0 // records of the batches that went through Broker.Ingest directly
	for b, lo := 0, t.lo; lo < t.hi; b, lo = b+1, lo+t.s.batch {
		name, send := "serve.Broker.Ingest", direct
		if b%2 == 1 {
			name, send = "POST /ingest", v.send
		}
		id := t.rec.begin(name, -1, b)
		tk, err := send(lo, lo+t.s.batch)
		t.rec.end(id)
		t.rep.Attempted++
		if err == nil {
			_, err = v.wait(tk)
		}
		if err != nil {
			t.rep.Failed++
			return fmt.Errorf("%s: batch %d: %w", name, b, err)
		}
		if b%2 == 0 {
			published += tk.records
		}
	}
	t.rec.settle(from)
	var viaBroker, viaHTTP, brokerFacade float64 // calibrated seconds
	var nBroker, nHTTP int
	for b, s := range t.rec.spans[from:] {
		if b%2 == 1 {
			viaHTTP += s.ns() / 1e9
			nHTTP++
		} else {
			viaBroker += s.ns() / 1e9
			brokerFacade += t.rec.spans[t.facade+b].ns() / 1e9
			nBroker++
		}
	}
	if nHTTP == 0 { // a one-batch segment: nothing went over HTTP
		viaHTTP, nHTTP = viaBroker, nBroker
	}
	wire, recs := v.wire()
	wire, recs = wire-bytesBefore, recs-recordsBefore
	perBroker := viaBroker / float64(nBroker)
	t.put("serve.broker_us_per_batch", 1e6*perBroker, "us")
	t.put("serve.publish_us_per_record", 1e6*(viaBroker-brokerFacade)/float64(max(published, 1)), "us")
	t.put("serve.http_ingest_overhead_us_per_batch", 1e6*(viaHTTP/float64(nHTTP)-perBroker), "us")
	t.put("serve.records_per_tuple", float64(recs)/float64(t.tuples()), "count")
	t.put("serve.ndjson_bytes_per_record", float64(wire)/float64(max(recs, 1)), "B")
	var evicted error
	if n := broker.Snapshot().Evictions; n != 0 {
		evicted = fmt.Errorf("%d evictions", n)
	}
	t.check("serve: no subscriber eviction", evicted)
	return nil
}
