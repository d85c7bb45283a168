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

// refreshTuples generates an append-only stream that refreshes edges
// and expires often: a small vertex set forces frequent re-insertions,
// the timestamp step is often 0 (long tie-groups), and slide > 1 with a
// small window forces regular expiry passes.
func refreshTuples(rng *rand.Rand, n int) []stream.Tuple {
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
func runPipeline(t *testing.T, spec window.Spec, exprs []string, tuples []stream.Tuple, shards, batch int) []Result {
	t.Helper()
	s, err := New(spec, WithShards(shards))
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
	assertQuiesced(t, s, fmt.Sprintf("shards=%d batch=%d, after drain", shards, batch))
	return all
}

// assertQuiesced: between batches every superseded version is gone and
// the graph's epoch is back at 0, or checkpoints (and memory) would
// accumulate batch residue.
func assertQuiesced(t *testing.T, s *Engine, when string) {
	t.Helper()
	if n, e := s.Graph().DeadVersions(), s.Graph().Epoch(); n != 0 || e != 0 {
		t.Fatalf("%s: %d dead versions retained at epoch %d", when, n, e)
	}
}

// TestPipelinedByteIdenticalAcrossShards is the shard-count acceptance
// differential on append-only streams with long timestamp
// tie-groups, frequent re-insertion refreshes and regular expiry passes:
// at shards 1/2/8 × batch sizes 17/64 the merged result stream, with
// stream-global tuple indices, must be byte-identical to the one-shard
// engine's at batch size 1, a tuple at a time. The baseline is further
// cross-checked against the sequential core.Multi oracle per query.
func TestPipelinedByteIdenticalAcrossShards(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+", "a*"}
	spec := window.Spec{Size: 20, Slide: 4}
	tuples := refreshTuples(rand.New(rand.NewSource(4242)), 900)

	ref := runPipeline(t, spec, exprs, tuples, 1, 1)
	if len(ref) == 0 {
		t.Fatal("no results produced; test is vacuous")
	}
	for _, batch := range []int{17, 64} {
		for _, shards := range []int{1, 2, 8} {
			got := runPipeline(t, spec, exprs, tuples, shards, batch)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards=%d batch=%d: result stream diverged from the tuple-at-a-time one (%d vs %d results)",
					shards, batch, len(got), len(ref))
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

// TestPipelinedEqualsInlineExactly: every step of a batch reads the
// graph at its own epoch — the sequential prefix as of its tuple — and
// the graph's write path does not depend on the shard count, so on churn
// streams (timestamp ties, 20% deletions, re-insertions) the 2- and
// 3-shard engines' result streams equal the one-shard engine's record
// for record, tuple attribution included, at every batch size, and so
// does every counter but the wall-clock ExpiryTime — InsertCalls
// included. InsertCalls still depends on the batch size: it counts
// timestamp improvements, whose number depends on adjacency order, and
// EndBatch compacts deleted cells at batch ends, so where the batches
// end reorders a vertex's adjacency. Each batch size is therefore
// compared with the one-shard engine at that batch size.
func TestPipelinedEqualsInlineExactly(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a/b)+", "a|(a/b*)", "(a|b)+", "c*"}
	spec := window.Spec{Size: 25, Slide: 5}
	run := func(tuples []stream.Tuple, batch int, opts ...Option) ([]Result, core.Stats) {
		s, err := New(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
				t.Fatal(err)
			}
		}
		all := runGlobal(t, s, tuples, batch)
		assertQuiesced(t, s, "after the stream")
		st := s.Stats()
		st.ExpiryTime = 0
		return all, st
	}
	invals := 0
	for seed := int64(1); seed <= 40; seed++ {
		tuples := randomTuples(rand.New(rand.NewSource(seed)), 300, 8, 3, 1, 0.20)
		for _, batch := range []int{1, 17, 64} {
			want, wantStats := run(tuples, batch, inlineOpts...)
			for _, r := range want {
				if r.Invalidated {
					invals++
				}
			}
			for _, shards := range []int{2, 3} {
				got, gotStats := run(tuples, batch, WithShards(shards))
				if gotStats != wantStats {
					t.Fatalf("seed %d shards=%d batch=%d: counters differ:\none shard %+v\nsharded   %+v",
						seed, shards, batch, wantStats, gotStats)
				}
				if reflect.DeepEqual(want, got) {
					continue
				}
				i := 0
				for i < min(len(want), len(got)) && want[i] == got[i] {
					i++
				}
				t.Fatalf("seed %d shards=%d batch=%d: %d vs %d records, first difference at record %d:\none shard %+v\nsharded   %+v",
					seed, shards, batch, len(want), len(got), i, want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
			}
		}
	}
	if invals == 0 {
		t.Fatal("no invalidations; deletion coverage is vacuous")
	}
}

// TestPipelinedBatchAllocs pins what a steady-state batch of 32 tuples
// at two shards allocates. A lasting edge 0 -a-> 1 keeps one
// tree per group alive; every batch then inserts 16 edges 1 -b-> k and
// deletes them again, so each one writes and retires graph versions
// inside its batch bracket, dispatches to both shards, emits matches and
// invalidations on both, and merges them.
func TestPipelinedBatchAllocs(t *testing.T) {
	s, err := New(window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range []string{"a/b", "a/b*", "a/(b|c)", "a/b+"} {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 1, Src: 0, Dst: 1, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	const n = 32
	tuples := make([]stream.Tuple, n)
	for i := range n / 2 {
		ins := stream.Tuple{TS: 1, Src: 1, Dst: stream.VertexID(2 + i), Label: 1}
		del := ins
		del.Op = stream.Delete
		tuples[i], tuples[n/2+i] = ins, del
	}
	var inval bool
	for range 3 {
		rs, err := s.ProcessBatch(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			inval = inval || r.Invalidated
		}
	}
	if !inval {
		t.Fatal("warm-up emitted no invalidations; test is vacuous")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("a two-shard %d-tuple batch allocates %.1f times, want 0", n, avg)
	}
}

// TestPipelinedDeletionHazards: with explicit deletions in the stream
// the engine at any shard count agrees with a standalone sequential RAPQ
// engine on the pairs ever matched, every invalidation retracts a
// matched pair, and the member's invariants hold at every batch boundary
// (the record-for-record contract is TestPipelinedEqualsInlineExactly's).
func TestPipelinedDeletionHazards(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(616)), 700, 7, 2, 1, 0.15)

	ref := core.NewCollector()
	seq := core.NewRAPQ(bind(t, "(a/b)+", "a", "b"), spec, core.WithSink(ref))
	for _, tu := range tuples {
		seq.Process(tu)
	}

	for _, shards := range []int{1, 2, 8} {
		got := core.NewCollector()
		s, err := New(spec, WithShards(shards))
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
				t.Fatalf("shards=%d: %v", shards, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Pairs(), got.Pairs()) {
			t.Fatalf("shards=%d: pair sets differ from sequential oracle", shards)
		}
		pairs := got.Pairs()
		for _, inval := range got.Retract {
			if _, ok := pairs[core.Pair{From: inval.From, To: inval.To}]; !ok {
				t.Fatalf("shards=%d: invalidated pair %v was never matched", shards, inval)
			}
		}
	}
}

// TestMultiWriterOracle cross-checks the engine against the sequential
// oracle on heavier churn (30% deletions, many timestamp ties) with the
// deprecated WithWriters option set: the coordinator stays the graph's
// one writer, so the pair sets must agree exactly, member invariants
// must hold at every batch boundary, and every invalidation must retract
// a previously emitted pair.
func TestMultiWriterOracle(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(515)), 700, 7, 2, 1, 0.30)

	ref := core.NewCollector()
	seq := core.NewRAPQ(bind(t, "(a/b)+", "a", "b"), spec, core.WithSink(ref))
	for _, tu := range tuples {
		seq.Process(tu)
	}

	for _, shards := range []int{1, 8} {
		for _, writers := range []int{2, 8} {
			got := core.NewCollector()
			s, err := New(spec, WithShards(shards), WithWriters(writers))
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
					t.Fatalf("shards=%d writers=%d: %v", shards, writers, err)
				}
			}
			assertQuiesced(t, s, fmt.Sprintf("shards=%d writers=%d, after drain", shards, writers))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Pairs(), got.Pairs()) {
				t.Fatalf("shards=%d writers=%d: pair sets differ from sequential oracle", shards, writers)
			}
			pairs := got.Pairs()
			for _, inval := range got.Retract {
				if _, ok := pairs[core.Pair{From: inval.From, To: inval.To}]; !ok {
					t.Fatalf("shards=%d writers=%d: invalidated pair %v was never matched", shards, writers, inval)
				}
			}
		}
	}
}

// TestPipelinedSnapshotEpochFree: a mid-stream checkpoint taken from a
// four-shard engine is identical to one taken from a one-shard engine at
// the same batch boundary — the on-disk state is the settled edge set
// and carries no epoch residue — and restoring it into another
// multi-shard engine continues the stream byte-identically,
// whatever groups registration had formed there. The restore keeps the
// snapshot's query→group layout whichever sharing mode either engine
// runs: a shared layout restored all-private leaves one of its
// populated shards empty, and a private layout restored into a sharing
// engine keeps the equivalent pair in two groups.
func TestPipelinedSnapshotEpochFree(t *testing.T) {
	exprs := []string{"(a/b)+", "b/a*", "(a/b)+"}
	spec := window.Spec{Size: 18, Slide: 3}
	tuples := refreshTuples(rand.New(rand.NewSource(99)), 600)
	half := len(tuples) / 2

	mkEngine := func(sharing bool, opts ...Option) *Engine {
		s, err := New(spec, append(opts, WithSharing(sharing))...)
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

	for _, c := range []struct {
		name                    string
		writeShared, readShared bool
	}{
		{"shared-into-private", true, false},
		{"private-into-shared", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			deep, flat := mkEngine(c.writeShared, WithShards(4)), mkEngine(c.writeShared, inlineOpts...)
			run(deep, tuples[:half])
			run(flat, tuples[:half])
			deepState, flatState := deep.SnapshotState(), flat.SnapshotState()
			// The canonical parts of the checkpoint — the folded graph, the
			// clocks, the tuple counters — are a pure function of the stream
			// prefix and must not depend on the shard count. (Tree shapes
			// and cost counters are map-iteration dependent even sequentially
			// and are deliberately not compared; results below are.)
			if !reflect.DeepEqual(deepState.Edges, flatState.Edges) {
				t.Fatal("folded graph differs between the shard counts at the same batch boundary")
			}
			if deepState.Now != flatState.Now || deepState.Seen != flatState.Seen ||
				deepState.Dropped != flatState.Dropped || deepState.Win != flatState.Win {
				t.Fatal("coordinator clocks differ between the shard counts at the same batch boundary")
			}
			wantGroups := flat.Stats().Groups
			wantTail := run(flat, tuples[half:])
			flat.Close()
			deep.Close()

			restored := mkEngine(c.readShared, WithShards(3))
			if err := restored.RestoreState(deepState); err != nil {
				t.Fatal(err)
			}
			if got := restored.Stats().Groups; got != wantGroups {
				t.Fatalf("restored layout has %d groups, the snapshot %d", got, wantGroups)
			}
			gotTail := run(restored, tuples[half:])
			restored.Close()
			if !reflect.DeepEqual(wantTail, gotTail) {
				t.Fatalf("restored engine's tail diverged (%d vs %d results)", len(gotTail), len(wantTail))
			}
			if len(wantTail) == 0 {
				t.Fatal("no tail results; test is vacuous")
			}
		})
	}
}

// TestEpochGCFoldsToUnversionedGraph is the epoch-GC compaction
// property at the engine level: after a churn stream (expiry,
// deletions, re-insertions) through a four-shard engine, the
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
		s, err := New(spec, WithShards(4))
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
// goroutine or on the caller's, as shard 0 — must not crash the process
// or wedge the engine; it surfaces as the sticky engine error from
// ProcessBatch, poisons subsequent calls, and is reported again by
// Close and Err.
func TestStickyWorkerError(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) { stickyWorkerError(t, WithShards(2)) })
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
	if err := s.checkLabelSpace(fa); err != nil {
		t.Fatal(err)
	}
	mb := s.newMember(fa, nil, fa.Fingerprint())
	s.activate(s.newGroup(&faultyMember{RAPQ: core.NewRAPQ(fa, s.spec), failAt: 30}, mb))

	tuples := refreshTuples(rand.New(rand.NewSource(3)), 400)
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
	// The failed batch still closed its bracket.
	if n := s.Graph().DeadVersions(); n != 0 {
		t.Fatalf("%d dead versions after the failed batch", n)
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

// TestPipelineOptionValidation: the deprecated WithPipelineDepth still
// rejects n <= 0 and otherwise changes nothing: one shard stays on the
// caller's goroutine.
func TestPipelineOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(0)); err == nil {
		t.Fatal("zero pipeline depth accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithPipelineDepth(-3)); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	assertOneShardOnCaller(t, WithPipelineDepth(4))
}

// TestWritersOptionValidation: the deprecated WithWriters still rejects
// n <= 0 and otherwise changes nothing.
func TestWritersOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(0)); err == nil {
		t.Fatal("zero writer count accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(-2)); err == nil {
		t.Fatal("negative writer count accepted")
	}
	assertOneShardOnCaller(t, WithWriters(4))
}

// assertOneShardOnCaller: a one-shard engine built with opt has no
// channel behind its shard.
func assertOneShardOnCaller(t *testing.T, opt Option) {
	t.Helper()
	s, err := New(window.Spec{Size: 10, Slide: 1}, append(inlineOpts, opt)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if w := s.workers[0]; s.NumShards() != 1 || w.in != nil || w.out != nil {
		t.Fatal("a deprecated option moved the one shard off the caller's goroutine")
	}
}

var _ core.MemberEngine = (*faultyMember)(nil)

// TestAddInPlace: every registration goes through one Add and leaves
// nothing behind. On a two-shard engine the static queries are added
// before the first batch (a bootstrap from the empty window); at a
// mid-stream batch boundary Add returns with the new group built and
// attached and no graph batch open, a second equivalent registration in
// the same gap subscribes to that group, and the very next batch
// dispatches to it. The engine's snapshot is then restored into a fresh
// engine, and a fifth query is added right after RestoreState, before
// that engine's first batch. Every member emits exactly what it emits,
// and every batch dispatches exactly as much as, in an engine that had
// the same queries from stream start.
func TestAddInPlace(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	static := []string{"(a/b)+", "a/b*"}
	dynamic := []string{"c/(a|b)*", "c/(b|a)*"} // equivalent: one group
	const late = "b/c*"
	bs := batches(randomTuples(rand.New(rand.NewSource(77)), 600, 7, 3, 1, 0.15), 20)
	cut, restoreAt := len(bs)/3, 2*len(bs)/3

	newEngine := func(exprs ...string) *Engine {
		s, err := New(spec, WithShards(2))
		if err != nil {
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
	// compare checks got against the from-start oracle's batches [from, to).
	compare := func(what string, gotRS, wantRS [][]Result, gotD, wantD []int64, from, to int) {
		t.Helper()
		if !reflect.DeepEqual(gotD, wantD[from:to]) {
			t.Fatalf("%s: dispatches per batch differ from the from-start engine:\n got %v\nwant %v",
				what, gotD, wantD[from:to])
		}
		if !reflect.DeepEqual(gotRS, wantRS[from:to]) {
			t.Fatalf("%s: result stream differs from the from-start engine", what)
		}
	}
	four := append(append([]string(nil), static...), dynamic...)
	oracle4 := newEngine(four...)
	defer oracle4.Close()
	want4, wantD4 := feed(oracle4, 0, len(bs))
	oracle5 := newEngine(append(four, late)...)
	defer oracle5.Close()
	want5, wantD5 := feed(oracle5, 0, len(bs))

	s := newEngine(static...)
	defer s.Close()
	feed(s, 0, cut)
	groups := s.Stats().Groups
	for i, expr := range dynamic {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
		if idx := len(s.members) - 1; idx != len(static)+i {
			t.Fatalf("registration index = %d, want %d", idx, len(static)+i)
		}
		if st := s.Stats(); st.Groups != groups+1 {
			t.Fatalf("after Add %d: %d groups, want %d (one new group, active on return)", i, st.Groups, groups+1)
		}
		assertQuiesced(t, s, "after a mid-stream Add")
	}
	gotRS, gotD := feed(s, cut, restoreAt)
	assertQuiesced(t, s, "after the batches following registration")
	compare("after a mid-stream Add", gotRS, want4, gotD, wantD4, cut, restoreAt)

	r := newEngine(four...)
	defer r.Close()
	if err := r.RestoreState(s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(bind(t, late, "a", "b", "c"), nil); err != nil {
		t.Fatal(err)
	}
	assertQuiesced(t, r, "after an Add right after RestoreState")
	gotRS, gotD = feed(r, restoreAt, len(bs))
	compare("after an Add right after RestoreState", gotRS, want5, gotD, wantD5, restoreAt, len(bs))

	emitted := map[int]bool{}
	for _, rs := range append(want4[cut:restoreAt], gotRS...) {
		for _, res := range rs {
			emitted[res.Query] = true
		}
	}
	for q := len(static); q <= len(four); q++ {
		if !emitted[q] {
			t.Fatalf("registered query %d emitted nothing; test is vacuous", q)
		}
	}
}
