package shard

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
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

// TestShardStats: every shard that owns queries reports work on a
// stream that touches all alphabets. The six patterns are pairwise
// inequivalent, so each forms a group of its own and the three shards
// get two each (identical queries would collapse into one group on one
// shard; see TestShardStatsShared).
func TestShardStats(t *testing.T) {
	s, err := New(window.Spec{Size: 50, Slide: 5}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"(a/b)+", "a+", "b+", "a/b", "b/a", "(a|b)+"} {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
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
			t.Errorf("shard %d: groups %d shared %d, want 2 unshared", i, st.Groups, st.SharedGroups)
		}
		total += st.Results
	}
	if agg := s.Stats(); agg.Results != total {
		t.Fatalf("aggregate results %d != sum of shard results %d", agg.Results, total)
	}
}

// TestShardStatsShared: six identical queries form ONE group whose index
// is maintained once, while each query still receives its own result
// stream: against six single-query engines fed the same stream, Results
// and Invalidations are equal and InsertCalls is a sixth.
func TestShardStatsShared(t *testing.T) {
	tuples := randomTuples(rand.New(rand.NewSource(3)), 200, 5, 2, 1, 0)
	run := func(queries int) core.Stats {
		s, err := New(window.Spec{Size: 50, Slide: 5}, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < queries; i++ {
			if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	shared := run(6)
	var private core.Stats
	for i := 0; i < 6; i++ {
		st := run(1)
		private.Results += st.Results
		private.Invalidations += st.Invalidations
		private.InsertCalls += st.InsertCalls
	}
	if shared.Groups != 1 || shared.SharedGroups != 1 {
		t.Fatalf("groups %d shared %d, want 1/1", shared.Groups, shared.SharedGroups)
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

// TestShardRelevanceSkips: a group whose automaton has no transition on
// the incoming label must be skipped, not dispatched, and the counters
// must account for every (tuple, group) combination of relevant tuples.
func TestShardRelevanceSkips(t *testing.T) {
	s, err := New(window.Spec{Size: 50, Slide: 5}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three groups: {a}, {a,b}, {c}.
	for _, expr := range []string{"a+", "(a/b)+", "c*"} {
		if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
			t.Fatal(err)
		}
	}
	tuples := []stream.Tuple{
		{TS: 1, Src: 1, Dst: 2, Label: 0}, // a: groups 1, 2
		{TS: 2, Src: 2, Dst: 3, Label: 1}, // b: group 2
		{TS: 3, Src: 3, Dst: 4, Label: 2}, // c: group 3
	}
	if _, err := s.ProcessBatch(tuples); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dispatches != 4 || st.RelevanceSkips != 5 {
		t.Fatalf("dispatches %d skips %d, want 4/5", st.Dispatches, st.RelevanceSkips)
	}
	// The per-shard split must sum to the aggregate.
	var d, k int64
	for _, ss := range s.ShardStats() {
		d += ss.Dispatches
		k += ss.RelevanceSkips
	}
	if d != st.Dispatches || k != st.RelevanceSkips {
		t.Fatalf("per-shard sums %d/%d != aggregate %d/%d", d, k, st.Dispatches, st.RelevanceSkips)
	}
}

// TestShardedIngestStress is the -race stress test for the concurrent
// batch path: several sharded engines run whole streams concurrently,
// each fanning batches out to its own shard goroutines, while the
// race detector watches the shared-graph/worker handoffs.
func TestShardedIngestStress(t *testing.T) {
	const engines = 4
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for g := 0; g < engines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s, err := New(window.Spec{Size: 30, Slide: 3}, WithShards(8))
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for _, expr := range []string{"(a/b)+", "a/b*", "(a|b)+", "b+", "a/b/a"} {
				if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
					errs <- err
					return
				}
			}
			tuples := randomTuples(rand.New(rand.NewSource(seed)), 1500, 12, 2, 1, 0.05)
			for i := 0; i < len(tuples); i += 64 {
				if _, err := s.ProcessBatch(tuples[i:min(i+64, len(tuples))]); err != nil {
					errs <- err
					return
				}
			}
			if st := s.Stats(); st.Results == 0 {
				t.Errorf("seed %d: stress run produced no results; test is vacuous", seed)
			}
		}(int64(1000 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRestoreStateMapping: RestoreState restores into the engines
// registration formed — Add's return values — and rejects a snapshot
// whose query→group mapping does not fit the registered queries, before
// it writes anything.
func TestRestoreStateMapping(t *testing.T) {
	spec := window.Spec{Size: 20, Slide: 2}
	build := func() (*Engine, []*core.RAPQ) {
		s, err := New(spec, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		var engines []*core.RAPQ
		for _, expr := range []string{"(a/b)+", "b/a*", "(a/b)+"} {
			e, err := s.Add(bind(t, expr, "a", "b"), nil)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, e)
		}
		return s, engines
	}
	src, _ := build()
	defer src.Close()
	if _, err := src.ProcessBatch(randomTuples(rand.New(rand.NewSource(7)), 200, 6, 2, 1, 0.1)); err != nil {
		t.Fatal(err)
	}
	snap := src.SnapshotState()
	if !reflect.DeepEqual(snap.MemberGroup, []int{0, 1, 0}) {
		t.Fatalf("snapshot mapping %v, want [0 1 0]", snap.MemberGroup)
	}

	for _, c := range []struct {
		name    string
		members []*core.RAPQState
		mapping []int
	}{
		{"one short", snap.Members, []int{0, 1}},
		{"index out of range", snap.Members, []int{0, 2, 0}},
		{"negative index", snap.Members, []int{0, -1, 0}},
		{"state without subscriber", append(slices.Clip(snap.Members), snap.Members[0]), []int{0, 1, 0}},
		{"inequivalent queries share a state", snap.Members, []int{0, 1, 1}},
	} {
		s, _ := build()
		st := *snap
		st.Members, st.MemberGroup = c.members, c.mapping
		if err := s.RestoreState(&st); err == nil {
			t.Errorf("%s: RestoreState accepted mapping %v over %d states", c.name, c.mapping, len(c.members))
		} else if s.Stats().Edges != 0 {
			t.Errorf("%s: rejected restore wrote the graph", c.name)
		}
		s.Close()
	}

	s, engines := build()
	defer s.Close()
	if err := s.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if engines[0] != engines[2] || s.Stats().Groups != 2 {
		t.Fatalf("registration layout: %d groups", s.Stats().Groups)
	}
	for gi, e := range engines[:2] {
		if got, want := e.Stats().InsertCalls, snap.Members[gi].Stats.InsertCalls; got != want || want == 0 {
			t.Fatalf("Add's engine %d holds InsertCalls %d, the snapshot state %d", gi, got, want)
		}
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
	if _, err := s.Add(bind(t, "a|b", "a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(bind(t, "a", "a"), nil); err == nil {
		t.Fatal("label space shrank, yet Add accepted")
	}
	if _, err := s.ProcessBatch([]stream.Tuple{{TS: 5, Label: 0}}); err != nil {
		t.Fatal(err)
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
	if _, err := s.Add(bind(t, "a|b", "a", "b"), nil); err == nil {
		t.Fatal("Add after Close accepted")
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
