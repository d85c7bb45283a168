package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

func bind(t testing.TB, expr string, labels ...string) *automaton.Bound {
	t.Helper()
	ids := map[string]int{}
	for i, l := range labels {
		ids[l] = i
	}
	d := automaton.Compile(pattern.MustParse(expr))
	return d.Bind(func(s string) int {
		if id, ok := ids[s]; ok {
			return id
		}
		return -1
	}, len(labels))
}

func randomTuples(rng *rand.Rand, n, vertices, labels int, maxStep int64, delRatio float64) []stream.Tuple {
	var out []stream.Tuple
	ts := int64(0)
	var inserted []stream.Tuple
	for i := 0; i < n; i++ {
		ts += rng.Int63n(maxStep + 1)
		if len(inserted) > 0 && rng.Float64() < delRatio {
			old := inserted[rng.Intn(len(inserted))]
			out = append(out, stream.Tuple{TS: ts, Src: old.Src, Dst: old.Dst, Label: old.Label, Op: stream.Delete})
			continue
		}
		tu := stream.Tuple{
			TS:    ts,
			Src:   stream.VertexID(rng.Intn(vertices)),
			Dst:   stream.VertexID(rng.Intn(vertices)),
			Label: stream.LabelID(rng.Intn(labels)),
		}
		out = append(out, tu)
		inserted = append(inserted, tu)
	}
	return out
}

// batches cuts a stream into batches of the given size.
func batches(tuples []stream.Tuple, size int) [][]stream.Tuple {
	var out [][]stream.Tuple
	for len(tuples) > 0 {
		n := min(size, len(tuples))
		out = append(out, tuples[:n])
		tuples = tuples[n:]
	}
	return out
}

// TestShardedMatchesSingleQuery: one query on a sharded engine must
// produce exactly the matches of a standalone RAPQ engine, including
// discovery timestamps, on a random stream with expiry. Without
// explicit deletions the full match multiset is deterministic, so the
// comparison is exact.
func TestShardedMatchesSingleQuery(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, batch := range []int{1, 7, 64} {
			a := bind(t, "(a/b)+", "a", "b")
			spec := window.Spec{Size: 25, Slide: 5}

			ref := core.NewCollector()
			seq := core.NewRAPQ(a, spec, core.WithSink(ref))

			got := core.NewCollector()
			s, err := New(spec, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), got); err != nil {
				t.Fatal(err)
			}

			tuples := randomTuples(rand.New(rand.NewSource(42)), 600, 8, 2, 2, 0)
			for _, tu := range tuples {
				seq.Process(tu)
			}
			for _, b := range batches(tuples, batch) {
				if _, err := s.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			if !sameMatchMultiset(ref.Matched, got.Matched) {
				t.Fatalf("shards=%d batch=%d: match multisets differ: seq %d vs sharded %d",
					shards, batch, len(ref.Matched), len(got.Matched))
			}
			if !reflect.DeepEqual(ref.Live, got.Live) {
				t.Fatalf("shards=%d batch=%d: live sets differ", shards, batch)
			}
		}
	}
}

// TestShardedMatchesSingleQueryDeletions: with explicit deletions the
// multiplicity of re-discovery matches and the invalidation report
// depend on the incidental spanning-tree shape (the paper's Algorithm
// Delete cuts along tree edges, and which edge is a tree edge is
// map-iteration dependent even sequentially), so the engines are
// compared on the shape-independent observables: the set of pairs ever
// matched, internal invalidation consistency, and index invariants.
func TestShardedMatchesSingleQueryDeletions(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, batch := range []int{1, 13, 64} {
			a := bind(t, "(a/b)+", "a", "b")
			spec := window.Spec{Size: 25, Slide: 5}

			ref := core.NewCollector()
			seq := core.NewRAPQ(a, spec, core.WithSink(ref))

			got := core.NewCollector()
			s, err := New(spec, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			member, err := s.Add(bind(t, "(a/b)+", "a", "b"), got)
			if err != nil {
				t.Fatal(err)
			}

			tuples := randomTuples(rand.New(rand.NewSource(17)), 600, 8, 2, 2, 0.1)
			for _, tu := range tuples {
				seq.Process(tu)
			}
			for _, b := range batches(tuples, batch) {
				if _, err := s.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
				if err := member.CheckInvariants(); err != nil {
					t.Fatalf("shards=%d batch=%d: %v", shards, batch, err)
				}
			}
			s.Close()

			if !reflect.DeepEqual(ref.Pairs(), got.Pairs()) {
				t.Fatalf("shards=%d batch=%d: pair sets differ", shards, batch)
			}
			pairs := got.Pairs()
			for _, inval := range got.Retract {
				if _, ok := pairs[core.Pair{From: inval.From, To: inval.To}]; !ok {
					t.Fatalf("shards=%d batch=%d: invalidated pair %v was never matched", shards, batch, inval)
				}
			}
		}
	}
}

func sameMatchMultiset(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[core.Match]int{}
	for _, m := range a {
		count[m]++
	}
	for _, m := range b {
		count[m]--
		if count[m] < 0 {
			return false
		}
	}
	return true
}

// TestShardedMatchesMulti: several queries on a sharded engine must
// reproduce the reference core.Multi coordinator query by query.
func TestShardedMatchesMulti(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+", "b/a", "a*"}
	spec := window.Spec{Size: 30, Slide: 3}

	for _, shards := range []int{1, 2, 8} {
		multi, err := core.NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(spec, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var refSinks, gotSinks []*core.CollectorSink
		for _, expr := range exprs {
			ref, got := core.NewCollector(), core.NewCollector()
			refSinks, gotSinks = append(refSinks, ref), append(gotSinks, got)
			if _, err := multi.Add(bind(t, expr, "a", "b"), core.WithSink(ref)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bind(t, expr, "a", "b"), got); err != nil {
				t.Fatal(err)
			}
		}

		tuples := randomTuples(rand.New(rand.NewSource(7)), 800, 10, 2, 2, 0.08)
		for _, tu := range tuples {
			multi.Process(tu)
		}
		for _, b := range batches(tuples, 32) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		for qi := range exprs {
			if !reflect.DeepEqual(refSinks[qi].Pairs(), gotSinks[qi].Pairs()) {
				t.Fatalf("shards=%d query %q: pair sets differ", shards, exprs[qi])
			}
		}
		// Shared-graph bookkeeping does not depend on tree shape and
		// must agree exactly even with deletions in the stream.
		if ms, ss := multi.Stats(), s.Stats(); ms.Edges != ss.Edges ||
			ms.TuplesSeen != ss.TuplesSeen || ms.TuplesDropped != ss.TuplesDropped {
			t.Fatalf("shards=%d: stats diverge: multi %+v vs sharded %+v", shards, ms, ss)
		}
	}
}

// TestShardedMatchesMultiNoDeletes: on a deletion-free stream the
// sharded engine reproduces core.Multi exactly, per query, down to the
// full match multiset with timestamps.
func TestShardedMatchesMultiNoDeletes(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+", "b/a", "a*"}
	spec := window.Spec{Size: 30, Slide: 3}

	for _, shards := range []int{1, 2, 8} {
		multi, err := core.NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(spec, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var refSinks, gotSinks []*core.CollectorSink
		for _, expr := range exprs {
			ref, got := core.NewCollector(), core.NewCollector()
			refSinks, gotSinks = append(refSinks, ref), append(gotSinks, got)
			if _, err := multi.Add(bind(t, expr, "a", "b"), core.WithSink(ref)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bind(t, expr, "a", "b"), got); err != nil {
				t.Fatal(err)
			}
		}

		tuples := randomTuples(rand.New(rand.NewSource(11)), 800, 10, 2, 2, 0)
		for _, tu := range tuples {
			multi.Process(tu)
		}
		for _, b := range batches(tuples, 32) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		for qi := range exprs {
			if !sameMatchMultiset(refSinks[qi].Matched, gotSinks[qi].Matched) {
				t.Fatalf("shards=%d query %q: match multisets differ (%d vs %d)",
					shards, exprs[qi], len(refSinks[qi].Matched), len(gotSinks[qi].Matched))
			}
			if !reflect.DeepEqual(refSinks[qi].Live, gotSinks[qi].Live) {
				t.Fatalf("shards=%d query %q: live sets differ", shards, exprs[qi])
			}
		}
		if ms, ss := multi.Stats(), s.Stats(); ms.Results != ss.Results ||
			ms.Edges != ss.Edges || ms.TuplesSeen != ss.TuplesSeen || ms.TuplesDropped != ss.TuplesDropped {
			t.Fatalf("shards=%d: stats diverge: multi %+v vs sharded %+v", shards, ms, ss)
		}
	}
}

// TestShardedDeterministicOrder: two runs over the same insert+expiry
// stream must return byte-identical ordered results. (With explicit
// deletions only the shape-independent observables are reproducible;
// see TestShardedMatchesSingleQueryDeletions.)
func TestShardedDeterministicOrder(t *testing.T) {
	run := func() []Result {
		s, err := New(window.Spec{Size: 20, Slide: 2}, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range []string{"(a/b)+", "a+", "b/a*", "(a|b)/b"} {
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()
		var all []Result
		tuples := randomTuples(rand.New(rand.NewSource(99)), 500, 6, 2, 1, 0)
		for _, b := range batches(tuples, 25) {
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs returned different ordered results: %d vs %d entries", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no results produced; test is vacuous")
	}
}

// TestShardStats: every shard that owns queries reports work on a
// stream that touches all alphabets. Sharing is pinned off — with it
// on, the six identical queries would collapse into one group on one
// shard (see TestShardStatsShared).
func TestShardStats(t *testing.T) {
	s, err := New(window.Spec{Size: 50, Slide: 5}, WithShards(3), WithSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	if _, err := s.ProcessBatch(randomTuples(rand.New(rand.NewSource(3)), 200, 5, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ss := s.ShardStats()
	if len(ss) != 3 {
		t.Fatalf("ShardStats len = %d", len(ss))
	}
	var total int64
	for i, st := range ss {
		if st.InsertCalls == 0 {
			t.Errorf("shard %d reports no insert calls", i)
		}
		if st.Groups != 2 || st.SharedGroups != 0 {
			t.Errorf("shard %d: groups %d shared %d, want 2 private", i, st.Groups, st.SharedGroups)
		}
		total += st.Results
	}
	if agg := s.Stats(); agg.Results != total {
		t.Fatalf("aggregate results %d != sum of shard results %d", agg.Results, total)
	}
}

// TestShardStatsShared: with sharing on (the default), six identical
// queries form ONE group whose index is maintained once, while each
// query still receives its own result stream: Results scales with the
// subscriber count, InsertCalls does not.
func TestShardStatsShared(t *testing.T) {
	mk := func(sharing bool) core.Stats {
		s, err := New(window.Spec{Size: 50, Slide: 5}, WithShards(3), WithSharing(sharing))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 6; i++ {
			if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.ProcessBatch(randomTuples(rand.New(rand.NewSource(3)), 200, 5, 2, 1, 0)); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	shared, private := mk(true), mk(false)
	if shared.Groups != 1 || shared.SharedGroups != 1 {
		t.Fatalf("sharing on: groups %d shared %d, want 1/1", shared.Groups, shared.SharedGroups)
	}
	if shared.Results != private.Results || shared.Invalidations != private.Invalidations {
		t.Fatalf("delivery counters differ: shared %d/%d vs private %d/%d",
			shared.Results, shared.Invalidations, private.Results, private.Invalidations)
	}
	if private.InsertCalls != 6*shared.InsertCalls {
		t.Fatalf("InsertCalls: private %d, shared %d — want exactly 6x", private.InsertCalls, shared.InsertCalls)
	}
	if shared.Dispatches == 0 || shared.RelevanceSkips != 0 {
		t.Fatalf("shared dispatch counters: %d/%d", shared.Dispatches, shared.RelevanceSkips)
	}
}

// TestShardedErrors exercises the API guard rails.
func TestShardedErrors(t *testing.T) {
	if _, err := New(window.Spec{Size: 0, Slide: 1}); err == nil {
		t.Fatal("invalid window accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithShards(0)); err == nil {
		t.Fatal("zero shards accepted")
	}
	s, err := New(window.Spec{Size: 10, Slide: 1}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "a", "a"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "a|b", "a", "b"), nil); err == nil {
		t.Fatal("label space mismatch accepted")
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 5, Label: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "a", "a"), nil); err == nil {
		t.Fatal("Add after start accepted")
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 9, Label: 0}, {TS: 8, Label: 0}}); err == nil {
		t.Fatal("out-of-order batch accepted")
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 3, Label: 0}}); err == nil {
		t.Fatal("batch behind the stream clock accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 10, Label: 0}}); err == nil {
		t.Fatal("ProcessBatch on closed engine accepted")
	}
}

// TestShardedEmptyAndIrrelevantBatches: batches with no member-visible
// work must still advance the window clock.
func TestShardedEmptyAndIrrelevantBatches(t *testing.T) {
	s, err := New(window.Spec{Size: 4, Slide: 1}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewCollector()
	if _, err := s.Add(bind(t, "a/a", "a"), sink); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ProcessBatch(nil); err != nil {
		t.Fatal(err)
	}
	mk := func(ts int64, src, dst stream.VertexID, l stream.LabelID) stream.Tuple {
		return stream.Tuple{TS: ts, Src: src, Dst: dst, Label: l}
	}
	if _, err := s.ProcessBatch([]stream.Tuple{mk(1, 0, 1, 0), mk(2, 1, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	if len(sink.Live) != 1 {
		t.Fatalf("live = %v", sink.Live)
	}
	// A long run of irrelevant tuples must expire the old edges: after
	// ts 20 the window (size 4) holds nothing.
	irr := []stream.Tuple{{TS: 10, Label: -1}, {TS: 15, Label: 9}, {TS: 20, Label: -1}}
	if _, err := s.ProcessBatch(irr); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Edges != 0 || st.Nodes != 0 {
		t.Fatalf("stale window state after irrelevant tuples: %+v", st)
	}
	if st := s.Stats(); st.TuplesDropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.TuplesDropped)
	}
}
