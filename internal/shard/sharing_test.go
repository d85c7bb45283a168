package shard

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// sharingExprs mixes an exact duplicate pair (indices 0 and 2), a
// language-equivalent pair that only minimization unifies (1 and 3),
// and a singleton (4): the five registrations collapse to three
// Δ-index groups, two of them shared.
var sharingExprs = []string{"(a/b)+", "a/b*", "(a/b)+", "a|(a/b*)", "(a|b)+"}

// Both runs below register sharingExprs, remove index 2 before batch
// len/3 — splitting a shared group down to one subscriber — and
// register "(a/b)+" again, as index 5, before batch 2·len/3, which
// re-forms it.
const rejoinExpr = "(a/b)+"

// runShared drives one coordinator over the batches and returns the
// full merged result sequence.
func runShared(t *testing.T, spec window.Spec, bs [][]stream.Tuple, shards int) []Result {
	t.Helper()
	s, err := New(spec, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range sharingExprs {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Groups != 3 || st.SharedGroups != 2 {
		t.Fatalf("groups %d shared %d, want 3/2", st.Groups, st.SharedGroups)
	}
	var all []Result
	for bi, b := range bs {
		switch bi {
		case len(bs) / 3:
			if err := s.Remove(2); err != nil {
				t.Fatal(err)
			}
		case 2 * len(bs) / 3:
			// The pattern must rejoin the live group rather than
			// bootstrap a copy of its own.
			if _, err := s.Add(bind(t, rejoinExpr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			} else if idx := len(s.members) - 1; idx != len(sharingExprs) {
				t.Fatalf("re-registration index = %d", idx)
			}
		}
		rs, err := s.ProcessBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rs...)
	}
	st := s.Stats()
	if st.Groups != 3 || st.SharedGroups != 2 {
		t.Fatalf("after re-form: groups %d shared %d, want 3/2", st.Groups, st.SharedGroups)
	}
	if st.RelevanceSkips != 0 {
		// Every tuple label (a, b) is relevant to every group here;
		// the skip counter is exercised by TestShardRelevanceSkips.
		t.Fatalf("unexpected relevance skips: %d", st.RelevanceSkips)
	}
	return all
}

// runPrivate is runShared's oracle: one single-query engine per
// registration, fed the same batches, whose records are relabelled with
// the registration index and merged in canonical order. The removed
// query's engine stops receiving batches at the removal; the
// re-registered one runs from the start, and its records before the
// re-registration batch are dropped — a query registered mid-stream
// emits the suffix of a from-start run.
func runPrivate(t *testing.T, spec window.Spec, bs [][]stream.Tuple) []Result {
	t.Helper()
	removed, rejoined := len(bs)/3, 2*len(bs)/3
	exprs := append(slices.Clip(sharingExprs), rejoinExpr)
	engines := make([]*Engine, len(exprs))
	for q, expr := range exprs {
		s, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
		engines[q] = s
	}
	var all []Result
	for bi, b := range bs {
		var batch []Result
		for q, s := range engines {
			if q == 2 && bi >= removed {
				continue
			}
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if q == len(sharingExprs) && bi < rejoined {
				continue
			}
			for _, r := range rs {
				r.Query = q
				batch = append(batch, r)
			}
		}
		slices.SortStableFunc(batch, compareResults)
		all = append(all, batch...)
	}
	return all
}

// TestSharedGroupsByteIdentical is the sharing acceptance differential:
// on a 20%-churn stream with a mid-stream group split and re-form, the
// coordinator's merged result stream must be byte-identical — results,
// order, timestamps, invalidations, query ids — to that of one
// single-query engine per registration, at every shard count.
// Canonical-automaton dedup and relevance dispatch must be completely
// invisible in the output.
func TestSharedGroupsByteIdentical(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	bs := batches(randomTuples(rand.New(rand.NewSource(4242)), 700, 7, 2, 1, 0.20), 23)
	private := runPrivate(t, spec, bs)
	if len(private) == 0 {
		t.Fatal("no results produced; test is vacuous")
	}
	for _, shards := range []int{1, 2, 8} {
		shared := runShared(t, spec, bs, shards)
		if !reflect.DeepEqual(private, shared) {
			t.Fatalf("shards=%d: sharing changed the result stream (%d vs %d results)",
				shards, len(shared), len(private))
		}
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

// starExprs mixes queries whose start state is their only final state
// (a*, (a|b)*, (a/b)*, ((a/b)*/c)*, (a*/b)*) with their R+ twins and a
// query with a second final state (a*/b*, which keeps its binding).
// a*, a+ and a/a* share one group, (a/b)* and (a/b)+ another: seven
// groups, two of them shared.
var starExprs = []string{"a*", "a+", "a/a*", "(a|b)*", "(a/b)*", "(a/b)+", "((a/b)*/c)*", "(a*/b)*", "(a|b|c)+", "a*/b*"}

// runPrivateRAPQ is TestStarSharesPlusGroup's oracle: one standalone
// core.RAPQ per query, bound to the query's own compiled DFA and fed
// the stream tuple by tuple; each tuple's records are put in canonical
// order. It also returns the engines' summed delivery counters.
func runPrivateRAPQ(t *testing.T, spec window.Spec, exprs []string, tuples []stream.Tuple) ([]Result, core.Stats) {
	t.Helper()
	var all, step []Result
	cur := 0
	engines := make([]*core.RAPQ, len(exprs))
	for q, expr := range exprs {
		emit := func(inval bool) func(core.Match) {
			return func(m core.Match) {
				step = append(step, Result{Tuple: cur, Query: q, Match: m, Invalidated: inval})
			}
		}
		sink := core.FuncSink{Match: emit(false), Invalidate: emit(true)}
		engines[q] = core.NewRAPQ(bind(t, expr, "a", "b", "c"), spec, core.WithSink(sink))
	}
	for i, tu := range tuples {
		cur, step = i, step[:0]
		for _, e := range engines {
			e.Process(tu)
		}
		slices.SortFunc(step, compareResults)
		all = append(all, step...)
	}
	var sum core.Stats
	for _, e := range engines {
		st := e.Stats()
		sum.Results += st.Results
		sum.Invalidations += st.Invalidations
	}
	return all, sum
}

// TestStarSharesPlusGroup: a query whose start state is its only final
// state shares its R+ twin's group (core.GroupBinding), and its records
// stay those of an unshared engine: on a 10%-deletion stream, at slides
// 1–4, shards 1–3 and batch sizes 1, 17 and 64, every record equals one
// private core.RAPQ per query, bound to its own DFA, and the delivery
// counters equal the private engines' sums.
func TestStarSharesPlusGroup(t *testing.T) {
	tuples := randomTuples(rand.New(rand.NewSource(51)), 700, 6, 3, 1, 0.10)
	for slide := int64(1); slide <= 4; slide++ {
		spec := window.Spec{Size: 20, Slide: slide}
		want, sum := runPrivateRAPQ(t, spec, starExprs, tuples)
		selfPairs := 0
		for _, r := range want {
			if r.Match.From == r.Match.To {
				selfPairs++
			}
		}
		if sum.Invalidations == 0 || selfPairs == 0 {
			t.Fatalf("slide %d: %d invalidations, %d (x, x) records; test is vacuous", slide, sum.Invalidations, selfPairs)
		}
		for shards := 1; shards <= 3; shards++ {
			for _, batch := range []int{1, 17, 64} {
				s, err := New(spec, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				for _, expr := range starExprs {
					if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
						t.Fatal(err)
					}
				}
				m := s.members
				if m[0].group != m[1].group || m[1].group != m[2].group || m[4].group != m[5].group {
					t.Fatal("a*, a+ and a/a* or (a/b)* and (a/b)+ do not share a group")
				}
				got := runGlobal(t, s, tuples, batch)
				st := s.Stats()
				s.Close()
				if st.Groups != 7 || st.SharedGroups != 2 {
					t.Fatalf("groups %d shared %d, want 7/2", st.Groups, st.SharedGroups)
				}
				if !reflect.DeepEqual(want, got) {
					i := 0
					for i < min(len(want), len(got)) && want[i] == got[i] {
						i++
					}
					t.Fatalf("slide %d shards %d batch %d: %d records, private engines %d; first difference at %d",
						slide, shards, batch, len(got), len(want), i)
				}
				if st.Results != sum.Results || st.Invalidations != sum.Invalidations {
					t.Fatalf("slide %d shards %d batch %d: results %d invalidations %d, private engines %d/%d",
						slide, shards, batch, st.Results, st.Invalidations, sum.Results, sum.Invalidations)
				}
			}
		}
	}
}
