package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// sharingExprs mixes an exact duplicate pair (indices 0 and 2), a
// language-equivalent pair that only minimization unifies (1 and 3),
// and a private singleton (4): with sharing on the five registrations
// collapse to three Δ-index groups, two of them shared.
var sharingExprs = []string{"(a/b)+", "a/b*", "(a/b)+", "a|(a/b*)", "(a|b)+"}

// runSharing drives one engine configuration over the churn stream,
// with a mid-stream removal that splits a shared group down to one
// subscriber and a later re-registration that re-forms it, and returns
// the full merged result sequence.
func runSharing(t *testing.T, spec window.Spec, tuples []stream.Tuple, shards int, sharing bool) []Result {
	t.Helper()
	s, err := New(spec, WithShards(shards), WithSharing(sharing))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, expr := range sharingExprs {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if sharing {
		if st := s.Stats(); st.Groups != 3 || st.SharedGroups != 2 {
			t.Fatalf("sharing on: groups %d shared %d, want 3/2", st.Groups, st.SharedGroups)
		}
	}
	bs := batches(tuples, 23)
	var all []Result
	for bi, b := range bs {
		switch bi {
		case len(bs) / 3:
			// Split: index 2 duplicates index 0, so with sharing on this
			// shrinks a shared group to a single subscriber.
			if err := s.Remove(2); err != nil {
				t.Fatal(err)
			}
		case 2 * len(bs) / 3:
			// Re-form: the same pattern registers again mid-stream and,
			// with sharing on, must rejoin the live group rather than
			// bootstrap a private copy.
			if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
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
	if sharing {
		if st := s.Stats(); st.Groups != 3 || st.SharedGroups != 2 {
			t.Fatalf("sharing on, after re-form: groups %d shared %d, want 3/2", st.Groups, st.SharedGroups)
		}
		if st := s.Stats(); st.RelevanceSkips != 0 {
			// Every tuple label (a, b) is relevant to every group here;
			// the skip counter is exercised by TestShardRelevanceSkips.
			t.Fatalf("unexpected relevance skips: %d", st.RelevanceSkips)
		}
	}
	return all
}

// TestSharedGroupsByteIdentical is the sharing acceptance differential:
// on a 20%-churn stream with a mid-stream group split and re-form, the
// merged result stream with sharing ON must be byte-identical —
// results, order, timestamps, invalidations, query ids — to the
// all-private engine at every shard count.
// Canonical-automaton dedup and relevance dispatch must be completely
// invisible in the output.
func TestSharedGroupsByteIdentical(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(4242)), 700, 7, 2, 1, 0.20)

	for _, shards := range []int{1, 2, 8} {
		private := runSharing(t, spec, tuples, shards, false)
		if len(private) == 0 {
			t.Fatal("no results produced; test is vacuous")
		}
		shared := runSharing(t, spec, tuples, shards, true)
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
