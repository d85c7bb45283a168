package core

import (
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// exhaustive_test.go enumerates every labeled graph with up to
// maxEdges edges over a 3-vertex, 2-label universe and checks both
// engines against their batch oracles on each. This complements the
// randomized tests with complete coverage of the small cases, where
// cycles, self loops, parallel edges and conflicts all occur.

const (
	exVertices = 3
	exLabels   = 2
	exMaxEdges = 4
)

// enumerate all distinct directed labeled edges of the universe.
func exEdgeUniverse() []stream.Tuple {
	var out []stream.Tuple
	for s := 0; s < exVertices; s++ {
		for d := 0; d < exVertices; d++ {
			for l := 0; l < exLabels; l++ {
				out = append(out, stream.Tuple{
					Src:   stream.VertexID(s),
					Dst:   stream.VertexID(d),
					Label: stream.LabelID(l),
				})
			}
		}
	}
	return out
}

// forEachGraph calls f with every edge subset of size 1..exMaxEdges.
func forEachGraph(f func(edges []stream.Tuple)) {
	universe := exEdgeUniverse()
	n := len(universe)
	var rec func(start int, acc []stream.Tuple)
	rec = func(start int, acc []stream.Tuple) {
		if len(acc) > 0 {
			f(acc)
		}
		if len(acc) == exMaxEdges {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(acc, universe[i]))
		}
	}
	rec(0, nil)
}

var exhaustiveQueries = []string{
	"a", "a*", "a+", "a/b", "a|b", "(a/b)+", "a/b*", "(a|b)*", "a/b/a",
}

// TestRAPQExhaustiveSmallGraphs replays every small graph as a stream
// (one edge per time unit, window large enough to hold everything) and
// compares the engine's live result state against the batch oracle.
func TestRAPQExhaustiveSmallGraphs(t *testing.T) {
	for _, expr := range exhaustiveQueries {
		a := bind(t, expr, "a", "b")
		graphs := 0
		forEachGraph(func(edges []stream.Tuple) {
			graphs++
			sink := NewCollector()
			e := NewRAPQ(a, window.Spec{Size: 1000, Slide: 1}, WithSink(sink))
			for i, ed := range edges {
				ed.TS = int64(i + 1)
				e.Process(ed)
			}
			want := BatchArbitrary(e.Graph(), a, -1)
			got := sink.Pairs()
			if len(got) != len(want) {
				t.Fatalf("%q edges %v: engine %v, oracle %v", expr, edges, got, want)
			}
			for p := range want {
				if _, ok := got[p]; !ok {
					t.Fatalf("%q edges %v: missing %v", expr, edges, p)
				}
			}
		})
		if graphs < 1000 {
			t.Fatalf("only %d graphs enumerated", graphs)
		}
	}
}

// TestRSPQExhaustiveSmallGraphs does the same against the brute-force
// simple-path oracle, covering the conflict machinery on every small
// cyclic structure.
func TestRSPQExhaustiveSmallGraphs(t *testing.T) {
	for _, expr := range exhaustiveQueries {
		a := bind(t, expr, "a", "b")
		forEachGraph(func(edges []stream.Tuple) {
			sink := NewCollector()
			e := NewRSPQ(a, window.Spec{Size: 1000, Slide: 1}, WithSink(sink))
			for i, ed := range edges {
				ed.TS = int64(i + 1)
				e.Process(ed)
			}
			want := BatchSimple(e.Graph(), a, -1)
			got := sink.Pairs()
			if len(got) != len(want) {
				t.Fatalf("%q edges %v: engine %v, oracle %v", expr, edges, got, want)
			}
			for p := range want {
				if _, ok := got[p]; !ok {
					t.Fatalf("%q edges %v: missing %v", expr, edges, p)
				}
			}
		})
	}
}

// TestBatchSimpleMWAgreesOnSmallGraphs cross-checks the Mendelzon–Wood
// batch algorithm against exhaustive enumeration wherever the instance
// is conflict-free (MW is only guaranteed complete there; soundness is
// checked on every instance).
func TestBatchSimpleMWAgreesOnSmallGraphs(t *testing.T) {
	for _, expr := range exhaustiveQueries {
		a := bind(t, expr, "a", "b")
		forEachGraph(func(edges []stream.Tuple) {
			g := graphFromEdges(edges)
			brute := BatchSimple(g, a, -1)
			mw := BatchSimpleMW(g, a, -1)
			// Soundness always.
			for p := range mw {
				if _, ok := brute[p]; !ok {
					t.Fatalf("%q edges %v: MW reported %v not in brute force", expr, edges, p)
				}
			}
			// Completeness when the automaton has the containment
			// property (conflict-free on every graph).
			if automaton.Compile(pattern.MustParse(expr)).HasContainmentProperty() {
				for p := range brute {
					if _, ok := mw[p]; !ok {
						t.Fatalf("%q edges %v: MW missed %v on conflict-free query", expr, edges, p)
					}
				}
			}
		})
	}
}

func graphFromEdges(edges []stream.Tuple) *graph.Graph {
	g := graph.New()
	for i, e := range edges {
		g.Insert(e.Src, e.Dst, e.Label, int64(i+1))
	}
	return g
}
