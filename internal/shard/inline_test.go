package shard

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// inlineOpts is the one-shard configuration: shard 0 runs inline on the
// caller's goroutine and the engine starts no goroutine.
var inlineOpts = []Option{WithShards(1)}

// runGlobal drives an engine over the stream in batches and returns the
// results with stream-global tuple indices.
func runGlobal(t *testing.T, s *Engine, tuples []stream.Tuple, batch int) []Result {
	t.Helper()
	var all []Result
	for bi, b := range batches(tuples, batch) {
		rs, err := s.ProcessBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			r.Tuple += bi * batch
			all = append(all, r)
		}
	}
	return all
}

// TestInlineMatchesReferenceExactly: the one-shard engine computes what
// the reference coordinator's tuple-at-a-time loop computes — on a
// 20%-churn stream with timestamp ties its result stream equals
// core.Multi's record for record, tuple attribution included (only the
// order within one tuple is canonicalized), the dispatch and delivery
// counters are equal, and the two-shard engine returns the same stream.
// InsertCalls is left out: it counts timestamp improvements, whose
// number depends on adjacency order, and core.Multi's graph compacts a
// deleted edge's cell at once while the engine's does so at the end of
// the batch.
func TestInlineMatchesReferenceExactly(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a/b)+", "a|(a/b*)", "(a|b)+", "c*"}
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(2020)), 900, 8, 3, 1, 0.20)

	ref, err := core.NewMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	cur := 0
	for qi, expr := range exprs {
		sink := core.FuncSink{
			Match:      func(m core.Match) { want = append(want, Result{Tuple: cur, Query: qi, Match: m}) },
			Invalidate: func(m core.Match) { want = append(want, Result{Tuple: cur, Query: qi, Match: m, Invalidated: true}) },
		}
		if _, err := ref.Add(bind(t, expr, "a", "b", "c"), core.WithSink(sink)); err != nil {
			t.Fatal(err)
		}
	}
	for i, tu := range tuples {
		cur = i
		ref.Process(tu)
	}
	slices.SortFunc(want, compareResults)

	build := func(opts ...Option) *Engine {
		s, err := New(spec, opts...)
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
	inline := build(inlineOpts...)
	defer inline.Close()
	got := runGlobal(t, inline, tuples, 23)
	if len(got) == 0 {
		t.Fatal("no results produced; test is vacuous")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("inline stream differs from the reference coordinator (%d vs %d results)", len(got), len(want))
	}
	rs, is := ref.Stats(), inline.Stats()
	if rs.Dispatches != is.Dispatches || rs.RelevanceSkips != is.RelevanceSkips ||
		rs.Results != is.Results || rs.Invalidations != is.Invalidations ||
		rs.TuplesSeen != is.TuplesSeen || rs.TuplesDropped != is.TuplesDropped || rs.Edges != is.Edges {
		t.Fatalf("counters differ:\nreference %+v\ninline    %+v", rs, is)
	}
	if is.Invalidations == 0 || is.RelevanceSkips == 0 {
		t.Fatalf("deletion or relevance coverage is vacuous: %+v", is)
	}

	piped := build(WithShards(2))
	defer piped.Close()
	if !reflect.DeepEqual(got, runGlobal(t, piped, tuples, 23)) {
		t.Fatal("two-shard stream differs from the one-shard one")
	}
}

// streamrpqGoroutines returns the stack of every goroutine except the
// caller's that runs streamrpq code or was started by it, keyed by its
// goroutine id.
func streamrpqGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	// The caller's goroutine is dumped first; the others follow, one
	// blank line apart.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, l := range strings.Split(g, "\n") {
			l = strings.TrimPrefix(l, "created by ")
			if strings.HasPrefix(l, "streamrpq.") || strings.HasPrefix(l, "streamrpq/") {
				out[strings.Fields(g)[1]] = g // "goroutine <id> [<state>]:"
				break
			}
		}
	}
	return out
}

// TestInlineStartsNothing: a one-shard engine runs on the caller — no
// goroutine running engine code appears across construction,
// registration and 1000 batches without Close, no channel sits behind
// its worker, and the graph's epoch is back at 0 after every batch.
// Goroutines other tests left behind, or unrelated ones that come and
// go, do not count.
func TestInlineStartsNothing(t *testing.T) {
	before := streamrpqGoroutines()
	s, err := New(window.Spec{Size: 20, Slide: 2}, inlineOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"(a/b)+", "a+"} {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	tuples := randomTuples(rand.New(rand.NewSource(1)), 4000, 6, 2, 1, 0.1)
	for _, b := range batches(tuples, 4) {
		if _, err := s.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		if n := s.Graph().Epoch(); n != 0 {
			t.Fatalf("the graph's epoch is %d after a batch, want 0", n)
		}
	}
	for id, stack := range streamrpqGoroutines() {
		if _, ok := before[id]; !ok {
			t.Fatalf("1000 one-shard batches left a goroutine running engine code:\n%s", stack)
		}
	}
	if w := s.workers[0]; len(s.workers) != 1 || w.in != nil || w.out != nil {
		t.Fatal("shard 0 owns channels")
	}
}

// TestSharingSplitRejoin: removing one subscriber of a shared group
// must keep the group alive for the rest; removing the last one must
// drop it — at one shard and at two.
func TestSharingSplitRejoin(t *testing.T) {
	for _, opts := range [][]Option{inlineOpts, {WithShards(2)}} {
		s, err := New(window.Spec{Size: 20, Slide: 2}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s0, s1 := core.NewCollector(), core.NewCollector()
		for _, sink := range []*core.CollectorSink{s0, s1} {
			if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), sink); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Groups != 1 || st.SharedGroups != 1 {
			t.Fatalf("groups = %d/%d", st.Groups, st.SharedGroups)
		}
		if err := s.Remove(0); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Groups != 1 || st.SharedGroups != 0 {
			t.Fatalf("after split: groups = %d/%d", st.Groups, st.SharedGroups)
		}
		if _, err := s.ProcessBatch([]stream.Tuple{
			{TS: 1, Src: 1, Dst: 2, Label: 0},
			{TS: 1, Src: 2, Dst: 3, Label: 1},
		}); err != nil {
			t.Fatal(err)
		}
		if len(s0.Matched) != 0 {
			t.Fatal("removed subscriber still receives results")
		}
		if len(s1.Matched) != 1 {
			t.Fatalf("surviving subscriber got %d matches, want 1", len(s1.Matched))
		}
		if err := s.Remove(1); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Groups != 0 || s.Len() != 0 {
			t.Fatalf("after last removal: groups = %d, queries = %d", st.Groups, s.Len())
		}
		if err := s.Remove(1); err == nil {
			t.Fatal("removing a removed query accepted")
		}
		s.Close()
	}
}

// TestInlineSnapshotRestore: a one-shard coordinator round-trips through
// MultiState — shared graph, window clock, every group's index — and
// the restored engine continues byte-identically; the state is
// shard-count-free, so restoring it into a two-shard engine continues
// the same stream too.
func TestInlineSnapshotRestore(t *testing.T) {
	exprs := []string{"a/b*", "(a|b)+", "b/a", "a|(a/b*)"}
	spec := window.Spec{Size: 20, Slide: 2}
	tuples := randomTuples(rand.New(rand.NewSource(4242)), 600, 9, 2, 1, 0.15)
	cut := 23 * 17 // a batch boundary about two thirds in

	build := func(opts ...Option) *Engine {
		s, err := New(spec, opts...)
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
	ref := build(inlineOpts...)
	defer ref.Close()
	runGlobal(t, ref, tuples[:cut], 23)
	snap := ref.SnapshotState()
	if len(snap.Members) != 3 || !reflect.DeepEqual(snap.MemberGroup, []int{0, 1, 2, 0}) {
		t.Fatalf("snapshot layout: %d group states, mapping %v", len(snap.Members), snap.MemberGroup)
	}
	want := runGlobal(t, ref, tuples[cut:], 23)
	if len(want) == 0 {
		t.Fatal("no tail results; test is vacuous")
	}

	same := build(inlineOpts...)
	defer same.Close()
	if err := same.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if got := runGlobal(t, same, tuples[cut:], 23); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored one-shard engine's tail diverged (%d vs %d results)", len(got), len(want))
	}

	piped := build(WithShards(2))
	defer piped.Close()
	if err := piped.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if got := runGlobal(t, piped, tuples[cut:], 23); !reflect.DeepEqual(want, got) {
		t.Fatalf("one-shard snapshot restored into a two-shard engine diverged (%d vs %d results)", len(got), len(want))
	}
}

// TestInlineRelevanceSkippedBatchAllocs is the one-shard pin: shard 0
// on the caller adds no allocations of its own — on a warmed-up working
// set where every tuple is dispatched to some groups and skipped for
// others, a batch costs only what its member engines cost (the steps,
// the graph's batch bracket, the result buffer, the dispatch lists and
// the per-tuple sort are all reused or in place).
func TestInlineRelevanceSkippedBatchAllocs(t *testing.T) {
	s, err := New(window.Spec{Size: 1 << 40, Slide: 1 << 40}, inlineOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range []string{"a/b", "a/b", "a+", "c*"} {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
	}
	const n = 64
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.Tuple{TS: 1, Src: stream.VertexID(i), Dst: stream.VertexID(i + 1), Label: stream.LabelID(i % 2)}
	}
	if rs, err := s.ProcessBatch(tuples); err != nil || len(rs) == 0 {
		t.Fatalf("warm-up: %d results, err %v", len(rs), err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
	})
	if st := s.Stats(); st.RelevanceSkips == 0 {
		t.Fatal("no relevance skips; test is vacuous")
	}
	if perTuple := avg / n; perTuple >= 0.5 {
		t.Errorf("one-shard batch allocates %.2f/tuple (avg %.1f per %d-tuple batch), want < 0.5", perTuple, avg, n)
	}
}
