package core

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// TestMultiMatchesIndividual: each member of a multi-query evaluator
// must produce exactly the results of a standalone engine running the
// same query over the same stream.
func TestMultiMatchesIndividual(t *testing.T) {
	exprs := []string{"(a/b)+", "a*", "c/b*", "a/b/c"}
	labels := []string{"a", "b", "c"}
	spec := window.Spec{Size: 25, Slide: 3}

	m, err := NewMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	multiSinks := make([]*CollectorSink, len(exprs))
	soloSinks := make([]*CollectorSink, len(exprs))
	solos := make([]*RAPQ, len(exprs))
	for i, expr := range exprs {
		a := bind(t, expr, labels...)
		multiSinks[i] = NewCollector()
		if _, err := m.Add(a, WithSink(multiSinks[i])); err != nil {
			t.Fatal(err)
		}
		soloSinks[i] = NewCollector()
		solos[i] = NewRAPQ(a, spec, WithSink(soloSinks[i]))
	}

	rng := rand.New(rand.NewSource(606))
	tuples := randomTuples(rng, 600, 10, 3, 2, 0.1)
	for _, tu := range tuples {
		m.Process(tu)
		for _, s := range solos {
			s.Process(tu)
		}
	}

	for i, expr := range exprs {
		mp, sp := multiSinks[i].Pairs(), soloSinks[i].Pairs()
		if len(mp) != len(sp) {
			t.Fatalf("%q: multi %d pairs, solo %d pairs", expr, len(mp), len(sp))
		}
		for p := range sp {
			if _, ok := mp[p]; !ok {
				t.Fatalf("%q: pair %v missing from multi run", expr, p)
			}
		}
	}

	// Sharing: the coordinator stores the window content once. Its
	// graph must be at least as large as any single member's residual
	// need but is stored exactly once.
	if m.Graph().NumEdges() == 0 {
		t.Fatal("shared graph empty")
	}
	if m.Len() != len(exprs) {
		t.Fatalf("Len = %d", m.Len())
	}
	st := m.Stats()
	if st.TuplesSeen != int64(len(tuples)) {
		t.Fatalf("TuplesSeen = %d", st.TuplesSeen)
	}
}

func TestMultiAddAfterStart(t *testing.T) {
	m, _ := NewMulti(window.Spec{Size: 10, Slide: 1})
	a := bind(t, "a", "a")
	if _, err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	m.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0})
	if _, err := m.Add(a); err == nil {
		t.Fatal("Add after processing accepted")
	}
}

func TestMultiLabelSpaceMismatch(t *testing.T) {
	m, _ := NewMulti(window.Spec{Size: 10, Slide: 1})
	if _, err := m.Add(bind(t, "a", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(bind(t, "a", "a", "b", "c")); err == nil {
		t.Fatal("mismatched label space accepted")
	}
}

func TestMultiBadSpec(t *testing.T) {
	if _, err := NewMulti(window.Spec{Size: 0, Slide: 1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestMultiIrrelevantDropped(t *testing.T) {
	m, _ := NewMulti(window.Spec{Size: 10, Slide: 1})
	m.Add(bind(t, "a", "a", "b", "c"))
	m.Add(bind(t, "b", "a", "b", "c"))
	m.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 2}) // label c: nobody cares
	st := m.Stats()
	if st.TuplesDropped != 1 || st.Edges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Label b is relevant to the second query only.
	m.Process(stream.Tuple{TS: 2, Src: 1, Dst: 2, Label: 1})
	if m.Graph().NumEdges() != 1 {
		t.Fatal("relevant edge not stored")
	}
}

// TestScanAllTreesAblation: disabling the inverted index must not
// change results, only cost.
func TestScanAllTreesAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	a := bind(t, "(a/b)+", "a", "b")
	spec := window.Spec{Size: 20, Slide: 2}
	s1, s2 := NewCollector(), NewCollector()
	fast := NewRAPQ(a, spec, WithSink(s1))
	slow := NewRAPQ(a, spec, WithSink(s2), WithoutInvertedIndex())
	tuples := randomTuples(rng, 500, 10, 2, 2, 0.05)
	for _, tu := range tuples {
		fast.Process(tu)
		slow.Process(tu)
	}
	fp, sp := s1.Pairs(), s2.Pairs()
	if len(fp) != len(sp) {
		t.Fatalf("indexed %d pairs, scan-all %d pairs", len(fp), len(sp))
	}
	for p := range fp {
		if _, ok := sp[p]; !ok {
			t.Fatalf("pair %v missing from scan-all run", p)
		}
	}
	if err := slow.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRelevanceIndex: each label lists the groups with a
// transition on it in ascending position order — whatever their
// alphabets' sizes — and a label outside the indexed space lists none.
func TestBuildRelevanceIndex(t *testing.T) {
	exprs := []string{"(a|b|c)+", "b", "c/b*", "a/b/c"} // broadest alphabet first
	bounds := make([]*automaton.Bound, len(exprs))
	for i, expr := range exprs {
		bounds[i] = bind(t, expr, "a", "b", "c", "d")
	}
	ri := BuildRelevanceIndex(bounds)
	want := [][]int32{{0, 3}, {0, 1, 2, 3}, {0, 2, 3}, nil}
	for l, w := range want {
		if got := ri.Groups(l); !reflect.DeepEqual(got, w) {
			t.Errorf("Groups(%d) = %v, want %v", l, got, w)
		}
	}
	for _, l := range []int{-1, len(want), len(want) + 7} {
		if got := ri.Groups(l); got != nil {
			t.Errorf("Groups(%d) = %v, want nil", l, got)
		}
	}
}
