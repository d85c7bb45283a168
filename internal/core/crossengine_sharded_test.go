// Differential tests between the sequential engines of this package
// and the sharded concurrent coordinator of internal/shard. They live
// in package core_test (same directory as crossengine_test.go) because
// importing internal/shard from package core would be an import cycle.
package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/pattern"
	"streamrpq/internal/shard"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

func bindX(t testing.TB, expr string, labels ...string) *automaton.Bound {
	t.Helper()
	ids := map[string]int{}
	for i, l := range labels {
		ids[l] = i
	}
	return automaton.Compile(pattern.MustParse(expr)).Bind(func(s string) int {
		if id, ok := ids[s]; ok {
			return id
		}
		return -1
	}, len(labels))
}

func randomTuplesX(rng *rand.Rand, n, vertices, labels int, maxStep int64, delRatio float64) []stream.Tuple {
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

// tagSink records a sequential engine's emissions as shard.Result
// values tagged with the current (tuple, query) position, so the
// sequential oracle's stream can be compared byte-for-byte against the
// sharded coordinator's merged output.
type tagSink struct {
	tuple, query *int
	qi           int
	out          *[]shard.Result
}

func (s tagSink) OnMatch(m core.Match) {
	*s.out = append(*s.out, shard.Result{Tuple: *s.tuple, Query: s.qi, Match: m})
}

func (s tagSink) OnInvalidate(m core.Match) {
	*s.out = append(*s.out, shard.Result{Tuple: *s.tuple, Query: s.qi, Match: m, Invalidated: true})
}

// canonResult is a shard.Result with the batch tuple index replaced by
// the tuple's timestamp. The sharded coordinator applies a whole
// sub-batch of graph mutations before the members run, so a member
// processing tuple i already sees later edges bearing the same
// timestamp and may discover a match a few positions earlier than the
// tuple-at-a-time sequential engine — attribution inside one timestamp
// tie-group is the one representation detail the backends do not share.
// Keying by timestamp instead of tuple index erases exactly that and
// nothing else: across tie-groups the order must still agree exactly.
type canonResult struct {
	TS          int64 // timestamp of the triggering tuple
	Query       int
	Invalidated bool
	Match       core.Match
}

// canonicalize maps tagged results to timestamp-keyed form and sorts
// each tie-group into the canonical order (query registration index,
// matches before invalidations, then (From, To, TS)).
func canonicalize(rs []shard.Result, tupleTS func(int) int64) []canonResult {
	out := make([]canonResult, len(rs))
	for i, r := range rs {
		out[i] = canonResult{TS: tupleTS(r.Tuple), Query: r.Query, Invalidated: r.Invalidated, Match: r.Match}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Invalidated != b.Invalidated {
			return !a.Invalidated
		}
		if a.Match.From != b.Match.From {
			return a.Match.From < b.Match.From
		}
		if a.Match.To != b.Match.To {
			return a.Match.To < b.Match.To
		}
		return a.Match.TS < b.Match.TS
	})
	return out
}

// TestShardedAgreesWithRAPQ: for shard counts 1, 2 and 8 crossed with
// pipeline depths 1, 2 and 4, the sharded engine must produce, per
// query, byte-identical results to a standalone sequential RAPQ engine
// on randomized streams with window expiry AND explicit deletions: the
// exact merged result sequence — matches and invalidations, with
// timestamps, in canonical order — plus the live result sets. With
// support-counting deletes the invalidation stream is a pure function
// of the input stream (no spanning-tree-shape dependence), so deletion
// streams get the same exact comparison as append-only ones.
func TestShardedAgreesWithRAPQ(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+", "a*"}
	for _, delRatio := range []float64{0, 0.15} {
		spec := window.Spec{Size: 25, Slide: 4}
		tuples := randomTuplesX(rand.New(rand.NewSource(404)), 700, 9, 2, 2, delRatio)

		// Sequential oracle: tag every emission with its (tuple, query)
		// position, then sort into the coordinator's canonical order.
		var want []shard.Result
		tupleIdx := 0
		var refs []*core.CollectorSink
		var seqs []*core.RAPQ
		for qi, expr := range exprs {
			ref := core.NewCollector()
			refs = append(refs, ref)
			sink := core.MultiSink{tagSink{tuple: &tupleIdx, qi: qi, out: &want}, ref}
			seqs = append(seqs, core.NewRAPQ(bindX(t, expr, "a", "b"), spec, core.WithSink(sink)))
		}
		for i, tu := range tuples {
			tupleIdx = i
			for _, e := range seqs {
				e.Process(tu)
			}
		}
		tupleTS := func(i int) int64 { return tuples[i].TS }
		wantCanon := canonicalize(want, tupleTS)

		var firstRaw []shard.Result
		for _, shards := range []int{1, 2, 8} {
			for _, depth := range []int{1, 2, 4} {
				s, err := shard.New(spec, shard.WithShards(shards), shard.WithPipelineDepth(depth))
				if err != nil {
					t.Fatal(err)
				}
				var gots []*core.CollectorSink
				for _, expr := range exprs {
					got := core.NewCollector()
					gots = append(gots, got)
					if _, err := s.Add(bindX(t, expr, "a", "b"), got); err != nil {
						t.Fatal(err)
					}
				}
				var have []shard.Result
				for i := 0; i < len(tuples); i += 40 {
					rs, err := s.ProcessBatch(tuples[i:min(i+40, len(tuples))])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rs {
						r.Tuple += i // batch-local -> global tuple index
						have = append(have, r)
					}
				}
				s.Close()
				haveCanon := canonicalize(have, tupleTS)
				if !reflect.DeepEqual(wantCanon, haveCanon) {
					n := min(len(wantCanon), len(haveCanon))
					diverge := n
					for i := 0; i < n; i++ {
						if wantCanon[i] != haveCanon[i] {
							diverge = i
							break
						}
					}
					for i := max(0, diverge-3); i < min(n, diverge+5); i++ {
						t.Logf("[%d] want %+v  have %+v", i, wantCanon[i], haveCanon[i])
					}
					t.Fatalf("shards=%d depth=%d del=%v: merged result streams differ from sequential oracle (%d vs %d results, first divergence at %d)",
						shards, depth, delRatio, len(wantCanon), len(haveCanon), diverge)
				}
				// Among pipelined configurations the raw merged streams —
				// tuple attribution included — must be byte-identical. (One
				// shard at depth 1 runs inline, tuple at a time; its raw
				// stream is pinned by shard.TestInlineMatchesReferenceExactly.)
				switch {
				case s.Inline():
				case firstRaw == nil:
					firstRaw = have
				case !reflect.DeepEqual(firstRaw, have):
					t.Fatalf("shards=%d depth=%d del=%v: raw merged stream differs from the first pipelined run",
						shards, depth, delRatio)
				}
				for qi, expr := range exprs {
					if !reflect.DeepEqual(refs[qi].Live, gots[qi].Live) {
						t.Fatalf("shards=%d depth=%d del=%v %q: live sets differ", shards, depth, delRatio, expr)
					}
				}
			}
		}
	}
}

func sameMatchCounts(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[core.Match]int{}
	for _, m := range a {
		count[m]++
	}
	for _, m := range b {
		if count[m]--; count[m] < 0 {
			return false
		}
	}
	return true
}

// TestShardedAgreesWithMulti: the sharded coordinator must agree with
// the reference core.Multi coordinator on shared-graph
// bookkeeping (tuples seen/dropped, window content) as well as on
// results, for shard counts 1, 2 and 8.
func TestShardedAgreesWithMulti(t *testing.T) {
	exprs := []string{"(a/b)+", "b/a*", "a+"}
	for _, shards := range []int{1, 2, 8} {
		spec := window.Spec{Size: 40, Slide: 8}
		multi, err := core.NewMulti(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.New(spec, shard.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var refs, gots []*core.CollectorSink
		for _, expr := range exprs {
			ref, got := core.NewCollector(), core.NewCollector()
			refs, gots = append(refs, ref), append(gots, got)
			if _, err := multi.Add(bindX(t, expr, "a", "b", "c"), core.WithSink(ref)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Add(bindX(t, expr, "a", "b", "c"), got); err != nil {
				t.Fatal(err)
			}
		}
		// Three labels but only a and b in the alphabets: label c
		// exercises the drop path of both coordinators.
		tuples := randomTuplesX(rand.New(rand.NewSource(808)), 900, 10, 3, 1, 0)
		for _, tu := range tuples {
			multi.Process(tu)
		}
		for i := 0; i < len(tuples); i += 100 {
			if _, err := s.ProcessBatch(tuples[i:min(i+100, len(tuples))]); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		for qi, expr := range exprs {
			if !sameMatchCounts(refs[qi].Matched, gots[qi].Matched) {
				t.Fatalf("shards=%d %q: match multisets differ", shards, expr)
			}
		}
		ms, ss := multi.Stats(), s.Stats()
		if ms.TuplesSeen != ss.TuplesSeen || ms.TuplesDropped != ss.TuplesDropped ||
			ms.Edges != ss.Edges || ms.Vertices != ss.Vertices || ms.Results != ss.Results {
			t.Fatalf("shards=%d: coordinator stats diverge:\nmulti   %+v\nsharded %+v", shards, ms, ss)
		}
	}
}

// TestShardedIngestStress is the -race stress test for the concurrent
// batch path: several sharded engines run whole streams concurrently,
// each fanning sub-batches out to its own shard goroutines, while the
// race detector watches the shared-graph/worker handoffs.
func TestShardedIngestStress(t *testing.T) {
	const engines = 4
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for g := 0; g < engines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s, err := shard.New(window.Spec{Size: 30, Slide: 3}, shard.WithShards(8))
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for _, expr := range []string{"(a/b)+", "a/b*", "(a|b)+", "b+", "a/b/a"} {
				if _, err := s.Add(bindX(t, expr, "a", "b"), nil); err != nil {
					errs <- err
					return
				}
			}
			tuples := randomTuplesX(rand.New(rand.NewSource(seed)), 1500, 12, 2, 1, 0.05)
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
