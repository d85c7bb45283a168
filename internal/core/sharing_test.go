package core

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// TestMultiSharedGroupEquivalentPatterns: syntactically different but
// language-equivalent patterns minimize to the same canonical automaton
// and must land in ONE shared Δ-index group, while each subscriber still
// receives its own complete result stream.
func TestMultiSharedGroupEquivalentPatterns(t *testing.T) {
	labels := []string{"a", "b", "c"}
	pairs := [][2]string{
		{"a/(b|c)", "(a/b)|(a/c)"},
		{"a/b*", "a|(a/b*)"},
		{"(a|b)+", "(a*/b*)+/(a|b)"},
	}
	for _, pair := range pairs {
		m, err := NewMulti(window.Spec{Size: 30, Slide: 3})
		if err != nil {
			t.Fatal(err)
		}
		sinks := [2]*CollectorSink{NewCollector(), NewCollector()}
		var engines [2]*RAPQ
		for i, expr := range pair {
			e, err := m.Add(bind(t, expr, labels...), WithSink(sinks[i]))
			if err != nil {
				t.Fatalf("%q: %v", expr, err)
			}
			engines[i] = e
		}
		if engines[0] != engines[1] {
			t.Fatalf("%v: equivalent patterns got distinct engines", pair)
		}
		// A third, inequivalent query must get its own group.
		if _, err := m.Add(bind(t, "c+", labels...)); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Groups != 2 || st.SharedGroups != 1 {
			t.Fatalf("%v: groups %d shared %d, want 2/1", pair, st.Groups, st.SharedGroups)
		}

		rng := rand.New(rand.NewSource(77))
		for _, tu := range randomTuples(rng, 400, 8, 3, 2, 0.15) {
			m.Process(tu)
		}
		if len(sinks[0].Matched) == 0 {
			t.Fatalf("%v: no matches produced", pair)
		}
		if !reflect.DeepEqual(sinks[0].Matched, sinks[1].Matched) ||
			!reflect.DeepEqual(sinks[0].Retract, sinks[1].Retract) {
			t.Fatalf("%v: shared-group subscribers diverged", pair)
		}
	}
}

// TestMultiDispatchCounters: the relevance filter's bookkeeping must
// add up — every processed relevant tuple is either dispatched to a
// group or skipped for it, and tuples relevant to nobody are dropped.
func TestMultiDispatchCounters(t *testing.T) {
	m, _ := NewMulti(window.Spec{Size: 20, Slide: 2})
	labels := []string{"a", "b", "c"}
	m.Add(bind(t, "a+", labels...))      // relevant: a
	m.Add(bind(t, "(a/b)+", labels...))  // relevant: a, b
	m.Add(bind(t, "a|(a/a)", labels...)) // relevant: a
	tuples := []stream.Tuple{
		{TS: 1, Src: 1, Dst: 2, Label: 0}, // a: all 3 groups
		{TS: 2, Src: 2, Dst: 3, Label: 1}, // b: group 2 only
		{TS: 3, Src: 3, Dst: 4, Label: 2}, // c: dropped
	}
	for _, tu := range tuples {
		m.Process(tu)
	}
	st := m.Stats()
	if st.Groups != 3 || st.SharedGroups != 0 {
		t.Fatalf("groups = %d/%d", st.Groups, st.SharedGroups)
	}
	if st.Dispatches != 4 || st.RelevanceSkips != 2 {
		t.Fatalf("dispatches %d skips %d, want 4/2", st.Dispatches, st.RelevanceSkips)
	}
	if st.TuplesDropped != 1 {
		t.Fatalf("dropped = %d", st.TuplesDropped)
	}
}
