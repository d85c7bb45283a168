package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// hazardTuples generates an append-only stream engineered to hit every
// non-delete hazard hard: a small vertex set forces frequent
// re-insertion refreshes (sub-batch cuts mid-tie-group included, since
// the timestamp step is often 0), and slide > 1 with a small window
// forces regular expiry passes.
func hazardTuples(rng *rand.Rand, n int) []stream.Tuple {
	var out []stream.Tuple
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += rng.Int63n(2) // many ties
		out = append(out, stream.Tuple{
			TS:    ts,
			Src:   stream.VertexID(rng.Intn(5)),
			Dst:   stream.VertexID(rng.Intn(5)),
			Label: stream.LabelID(rng.Intn(2)),
		})
	}
	return out
}

// runPipeline drives one engine configuration over the stream and
// returns the full merged result sequence (stream-global tuple indices).
func runPipeline(t *testing.T, spec window.Spec, exprs []string, tuples []stream.Tuple, shards, depth, batch int) []Result {
	t.Helper()
	s, err := New(spec, WithShards(shards), WithPipelineDepth(depth))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range exprs {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	all := runGlobal(t, s, tuples, batch)
	assertQuiesced(t, s, fmt.Sprintf("shards=%d depth=%d, after drain", shards, depth))
	return all
}

// assertQuiesced: between batches every reader epoch is released and
// every superseded version compacted, or checkpoints (and memory) would
// accumulate pipeline residue.
func assertQuiesced(t *testing.T, s *Engine, when string) {
	t.Helper()
	if n := s.Graph().ActiveReaders(); n != 0 {
		t.Fatalf("%s: %d reader epochs still active", when, n)
	}
	if n := s.Graph().DeadVersions(); n != 0 {
		t.Fatalf("%s: %d dead versions retained", when, n)
	}
}

// TestPipelinedByteIdenticalAcrossDepths is the pipelining acceptance
// differential on hazard-heavy append-only streams (expiry +
// re-insertion): for shards 1/2/8 the merged result stream at pipeline
// depths 2 and 4 must be byte-identical to depth 1 (the barriered
// engine) — and across shard counts too, since member emissions are a
// pure function of the stream prefix. One shard at depth 1 is the
// inline schedule, which attributes matches inside a timestamp
// tie-group tuple by tuple: it must agree in the timestamp-keyed form.
// The baseline is further cross-checked against the sequential
// core.Multi oracle per query.
func TestPipelinedByteIdenticalAcrossDepths(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+", "a*"}
	spec := window.Spec{Size: 20, Slide: 4}
	tuples := hazardTuples(rand.New(rand.NewSource(4242)), 900)

	// Tuple attribution inside a timestamp tie-group depends on where
	// sub-batches are cut, and batch boundaries force cuts — so byte
	// identity is asserted per batch size, across every shard count and
	// pipeline depth.
	var ref []Result // the first batch size's baseline, for the oracle check
	for _, batch := range []int{17, 64} {
		// The depth-1 barriered run at two shards is the baseline.
		base := runPipeline(t, spec, exprs, tuples, 2, 1, batch)
		if len(base) == 0 {
			t.Fatal("no results produced; test is vacuous")
		}
		if ref == nil {
			ref = base
		}
		for _, shards := range []int{1, 2, 8} {
			for _, depth := range []int{1, 2, 4} {
				got := runPipeline(t, spec, exprs, tuples, shards, depth, batch)
				if shards == 1 && depth == 1 {
					if !reflect.DeepEqual(byTimestamp(tuples, base), byTimestamp(tuples, got)) {
						t.Fatalf("batch=%d: inline stream diverged from barriered baseline beyond tie-group attribution", batch)
					}
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("shards=%d depth=%d batch=%d: result stream diverged from barriered baseline (%d vs %d results)",
						shards, depth, batch, len(got), len(base))
				}
			}
		}
	}

	// Cross-check the baseline against the sequential oracle.
	multi, err := core.NewMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*core.CollectorSink, len(exprs))
	for qi, expr := range exprs {
		sinks[qi] = core.NewCollector()
		if _, err := multi.Add(bind(t, expr, "a", "b"), core.WithSink(sinks[qi])); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range tuples {
		multi.Process(tu)
	}
	perQuery := make([][]core.Match, len(exprs))
	for _, r := range ref {
		perQuery[r.Query] = append(perQuery[r.Query], r.Match)
	}
	for qi := range exprs {
		if !sameMatchMultiset(sinks[qi].Matched, perQuery[qi]) {
			t.Fatalf("query %q: pipelined stream disagrees with sequential Multi oracle (%d vs %d matches)",
				exprs[qi], len(perQuery[qi]), len(sinks[qi].Matched))
		}
	}
}

// TestPipelinedDeletionHazards: with explicit deletions in the stream
// the byte-level contract is reduced to the shape-independent
// observables (see the package comment), which must agree between the
// pipelined engine at any depth and a sequential RAPQ oracle.
func TestPipelinedDeletionHazards(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(616)), 700, 7, 2, 1, 0.15)

	ref := core.NewCollector()
	seq := core.NewRAPQ(bind(t, "(a/b)+", "a", "b"), spec, core.WithSink(ref))
	for _, tu := range tuples {
		seq.Process(tu)
	}

	for _, shards := range []int{1, 2, 8} {
		for _, depth := range []int{2, 4} {
			got := core.NewCollector()
			s, err := New(spec, WithShards(shards), WithPipelineDepth(depth))
			if err != nil {
				t.Fatal(err)
			}
			member, err := s.Add(bind(t, "(a/b)+", "a", "b"), got)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches(tuples, 23) {
				if _, err := s.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
				if err := member.CheckInvariants(); err != nil {
					t.Fatalf("shards=%d depth=%d: %v", shards, depth, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Pairs(), got.Pairs()) {
				t.Fatalf("shards=%d depth=%d: pair sets differ from sequential oracle", shards, depth)
			}
			pairs := got.Pairs()
			for _, inval := range got.Retract {
				if _, ok := pairs[core.Pair{From: inval.From, To: inval.To}]; !ok {
					t.Fatalf("shards=%d depth=%d: invalidated pair %v was never matched", shards, depth, inval)
				}
			}
		}
	}
}

// TestPipelinedSnapshotEpochFree: a mid-stream checkpoint taken from a
// deeply pipelined engine is identical to one taken from the barriered
// engine at the same batch boundary — the on-disk state folds the
// version intervals away and carries no epoch residue — and restoring
// it into an engine of any depth continues the stream byte-identically,
// whatever groups registration had formed there: the restoring engine
// registers all-private, so the snapshot's shared layout leaves one of
// its populated shards empty.
func TestPipelinedSnapshotEpochFree(t *testing.T) {
	exprs := []string{"(a/b)+", "b/a*", "(a/b)+"}
	spec := window.Spec{Size: 18, Slide: 3}
	tuples := hazardTuples(rand.New(rand.NewSource(99)), 600)
	half := len(tuples) / 2

	mkEngine := func(depth int, sharing bool) *Engine {
		s, err := New(spec, WithShards(4), WithPipelineDepth(depth), WithSharing(sharing))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	run := func(s *Engine, tuples []stream.Tuple) []Result {
		var all []Result
		for _, b := range batches(tuples, 31) {
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}

	deep, flat := mkEngine(4, true), mkEngine(1, true)
	run(deep, tuples[:half])
	run(flat, tuples[:half])
	deepState, flatState := deep.SnapshotState(), flat.SnapshotState()
	// The canonical parts of the checkpoint — the folded graph, the
	// clocks, the tuple counters — are a pure function of the stream
	// prefix and must not depend on the pipeline depth. (Tree shapes
	// and cost counters are map-iteration dependent even sequentially
	// and are deliberately not compared; results below are.)
	if !reflect.DeepEqual(deepState.Edges, flatState.Edges) {
		t.Fatal("folded graph differs between pipeline depths at the same batch boundary")
	}
	if deepState.Now != flatState.Now || deepState.Seen != flatState.Seen ||
		deepState.Dropped != flatState.Dropped || deepState.Win != flatState.Win {
		t.Fatal("coordinator clocks differ between pipeline depths at the same batch boundary")
	}
	wantTail := run(flat, tuples[half:])
	flat.Close()
	deep.Close()

	restored := mkEngine(2, false)
	if err := restored.RestoreState(deepState); err != nil {
		t.Fatal(err)
	}
	gotTail := run(restored, tuples[half:])
	restored.Close()
	if !reflect.DeepEqual(wantTail, gotTail) {
		t.Fatalf("restored engine's tail diverged (%d vs %d results)", len(gotTail), len(wantTail))
	}
	if len(wantTail) == 0 {
		t.Fatal("no tail results; test is vacuous")
	}
}

// TestEpochGCFoldsToUnversionedGraph is the epoch-GC compaction
// property at the engine level: after a hazard-heavy stream (expiry,
// deletions, re-insertions) through the deeply pipelined engine, the
// serialized graph state — core.SnapshotEdges, exactly what
// SnapshotState records on disk — must be byte-identical to that of
// the never-versioned graph of the reference core.Multi coordinator
// fed the same stream, and the versioned graph must hold zero dead
// versions once the last reader epoch has retired.
func TestEpochGCFoldsToUnversionedGraph(t *testing.T) {
	exprs := []string{"(a/b)+", "a*"}
	spec := window.Spec{Size: 22, Slide: 4}
	for trial := 0; trial < 5; trial++ {
		tuples := randomTuples(rand.New(rand.NewSource(int64(500+trial))), 800, 6, 2, 1, 0.12)

		multi, err := core.NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(spec, WithShards(4), WithPipelineDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := multi.Add(bind(t, expr, "a", "b")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, tu := range tuples {
			multi.Process(tu)
		}
		for _, b := range batches(tuples, 41) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Graph().DeadVersions(); n != 0 {
			t.Fatalf("trial %d: %d dead versions after the last reader retired", trial, n)
		}
		got, want := core.SnapshotEdges(s.Graph()), core.SnapshotEdges(multi.Graph())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: folded graph differs from never-versioned oracle (%d vs %d edges)",
				trial, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// faultyMember panics on the Nth ApplyInsert; everything else
// delegates to a real RAPQ member. It drives the sticky-error path.
type faultyMember struct {
	*core.RAPQ
	calls, failAt int
}

func (f *faultyMember) ApplyInsert(t stream.Tuple) {
	f.calls++
	if f.calls == f.failAt {
		panic("injected member fault")
	}
	f.RAPQ.ApplyInsert(t)
}

// TestStickyWorkerError: a panic in a member engine — on a shard
// goroutine or inline on the caller — must not crash the process or
// wedge the pipeline; it surfaces as the sticky engine error from
// ProcessBatch, poisons subsequent calls, and is reported again by
// Close and Err.
func TestStickyWorkerError(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) { stickyWorkerError(t, WithShards(2), WithPipelineDepth(2)) })
	t.Run("inline", func(t *testing.T) { stickyWorkerError(t, inlineOpts...) })
}

func stickyWorkerError(t *testing.T, opts ...Option) {
	s, err := New(window.Spec{Size: 20, Slide: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	// Wrap a second member with the fault injector, on the other shard.
	fa := bind(t, "a+", "a", "b")
	if err := s.precheck(fa); err != nil {
		t.Fatal(err)
	}
	mb := s.newMember(fa, nil, fa.Fingerprint())
	s.activate(s.newGroup(&faultyMember{RAPQ: core.NewRAPQ(fa, s.spec), failAt: 30}, mb))

	tuples := hazardTuples(rand.New(rand.NewSource(3)), 400)
	var firstErr error
	for _, b := range batches(tuples, 20) {
		if _, err := s.ProcessBatch(b); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil || !strings.Contains(firstErr.Error(), "injected member fault") {
		t.Fatalf("fault did not surface from ProcessBatch: %v", firstErr)
	}
	if _, err := s.ProcessBatch(tuples[:1]); err == nil {
		t.Fatal("poisoned engine accepted another batch")
	}
	if s.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "injected member fault") {
		t.Fatalf("Close() = %v, want the sticky error", err)
	}
}

// TestStickyErrorFromProcess: the single-tuple core.Engine entry point
// records failures instead of panicking.
func TestStickyErrorFromProcess(t *testing.T) {
	s, err := New(window.Spec{Size: 10, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Add(bind(t, "a", "a"), nil); err != nil {
		t.Fatal(err)
	}
	s.Process(stream.Tuple{TS: 5, Label: 0})
	s.Process(stream.Tuple{TS: 3, Label: 0}) // out of order: must not panic
	if s.Err() == nil {
		t.Fatal("out-of-order Process did not set the sticky error")
	}
}

// TestPipelineOptionValidation covers the new option's guard rails and
// the accessor.
func TestPipelineOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(0)); err == nil {
		t.Fatal("zero pipeline depth accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(-3)); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	s, err := New(window.Spec{Size: 10, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := s.PipelineDepth(); d != 2 {
		t.Fatalf("default pipeline depth = %d, want 2", d)
	}
	s4, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if d := s4.PipelineDepth(); d != 4 {
		t.Fatalf("PipelineDepth = %d, want 4", d)
	}
}

var _ core.MemberEngine = (*faultyMember)(nil)

// TestAddDynamicInPlace: registration leaves nothing behind. On a
// started pipelined retain-all engine AddDynamic returns with the new
// group built and attached and no epoch lease held, a second equivalent
// registration in the same inter-batch gap subscribes to that group,
// the very next batch dispatches to it, and both subscribers emit
// exactly what they emit in an engine that had them from stream start.
func TestAddDynamicInPlace(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	static := []string{"(a/b)+", "a/b*"}
	dynamic := []string{"c/(a|b)*", "c/(b|a)*"} // equivalent: one group
	bs := batches(randomTuples(rand.New(rand.NewSource(77)), 600, 7, 3, 1, 0.15), 20)
	cut := len(bs) / 2

	newEngine := func(exprs ...string) *Engine {
		s, err := New(spec, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetRetainAll(true); err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// feed runs batches [from, to) and returns, per batch, its results
	// and the dispatches it counted.
	feed := func(s *Engine, from, to int) (rs [][]Result, dispatches []int64) {
		for _, b := range bs[from:to] {
			before := s.Stats().Dispatches
			out, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, append([]Result(nil), out...))
			dispatches = append(dispatches, s.Stats().Dispatches-before)
		}
		return rs, dispatches
	}
	oracle := newEngine(append(static, dynamic...)...)
	defer oracle.Close()
	wantRS, wantDispatches := feed(oracle, 0, len(bs))

	s := newEngine(static...)
	defer s.Close()
	feed(s, 0, cut)
	groups := s.Stats().Groups
	for i, expr := range dynamic {
		idx, err := s.AddDynamic(bind(t, expr, "a", "b", "c"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx != len(static)+i {
			t.Fatalf("registration index = %d, want %d", idx, len(static)+i)
		}
		if st := s.Stats(); st.Groups != groups+1 {
			t.Fatalf("after AddDynamic %d: %d groups, want %d (one new group, active on return)", i, st.Groups, groups+1)
		}
		assertQuiesced(t, s, "after AddDynamic")
	}
	gotRS, gotDispatches := feed(s, cut, len(bs))
	assertQuiesced(t, s, "after the batches following registration")
	if !reflect.DeepEqual(gotDispatches, wantDispatches[cut:]) {
		t.Fatalf("dispatches per batch after registration differ from the from-start engine:\n got %v\nwant %v",
			gotDispatches, wantDispatches[cut:])
	}
	if !reflect.DeepEqual(gotRS, wantRS[cut:]) {
		t.Fatal("result stream after registration differs from the from-start engine")
	}
	var dyn int
	for _, rs := range gotRS {
		for _, r := range rs {
			if r.Query >= len(static) {
				dyn++
			}
		}
	}
	if dyn == 0 {
		t.Fatal("the registered queries emitted nothing; test is vacuous")
	}
}
