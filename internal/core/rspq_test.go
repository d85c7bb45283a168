package core

import (
	"fmt"
	"math/rand"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// TestRSPQPaperExample replays Example 4.2: under simple path semantics
// the pair (x,y) must still be found through the conflict-detection and
// unmarking machinery, via the simple path ⟨x,z,u,v,y⟩, even though the
// first traversal reaches (y,2) over the non-simple ⟨x,y,u,v,y⟩.
func TestRSPQPaperExample(t *testing.T) {
	a := bind(t, "(follows/mentions)+", "follows", "mentions")
	sink := NewCollector()
	e := NewRSPQ(a, window.Spec{Size: 15, Slide: 1}, WithSink(sink))
	for _, tu := range paperStream() {
		if tu.TS > 18 {
			break
		}
		e.Process(tu)
	}
	// x=0 y=1 z=2 u=3 v=4 w=5.
	// Simple-path results at t=18: (x,w) via x,z,w; (x,u) via x,y,u or
	// x,z,u; (u,y) via u,v,y; (x,y) via x,z,u,v,y (the conflict case).
	want := map[Pair]struct{}{
		{From: 0, To: 5}: {},
		{From: 0, To: 3}: {},
		{From: 3, To: 1}: {},
		{From: 0, To: 1}: {},
	}
	got := sink.Pairs()
	for p := range want {
		if _, ok := got[p]; !ok {
			t.Errorf("missing pair %v, got %v", p, pairNames(got))
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			t.Errorf("unexpected pair %v", p)
		}
	}
	if st := e.Stats(); st.ConflictsFound == 0 {
		t.Error("expected at least one conflict at vertex v")
	}
}

// TestRSPQConflictUnmark builds the minimal conflict scenario by hand:
// query (a/b)+ with edges forming both a non-simple early path and a
// simple late path to the same (vertex,state).
func TestRSPQConflictUnmark(t *testing.T) {
	a := bind(t, "(a/b)+", "a", "b")
	sink := NewCollector()
	e := NewRSPQ(a, window.Spec{Size: 100, Slide: 1}, WithSink(sink))
	// x -a-> y -b-> u -a-> v -b-> y : the traversal x,y,u,v,y is not
	// simple. The alternative x -a-> z -b-> u exists, so x,z,u,v,y is a
	// simple witness for (x,y).
	const x, y, z, u, v = 0, 1, 2, 3, 4
	for i, ed := range []struct {
		s, d stream.VertexID
		l    stream.LabelID
	}{
		{x, y, 0}, {y, u, 1}, {u, v, 0}, {x, z, 0}, {z, u, 1}, {v, y, 1},
	} {
		e.Process(stream.Tuple{TS: int64(i + 1), Src: ed.s, Dst: ed.d, Label: ed.l})
	}
	if _, ok := sink.Pairs()[Pair{From: x, To: y}]; !ok {
		t.Errorf("(x,y) not found; pairs = %v", sink.Pairs())
	}
}

// rspqReplayOracle replays a stream against the brute-force simple-path
// oracle: the engine's cumulative output must equal the union of
// per-snapshot simple-path results.
func rspqReplayOracle(t *testing.T, a *automaton.Bound, spec window.Spec, tuples []stream.Tuple, checkLive bool) {
	t.Helper()
	sink := NewCollector()
	e := NewRSPQ(a, spec, WithSink(sink))
	oracle := graph.New()
	want := map[Pair]struct{}{}
	for i, tu := range tuples {
		e.Process(tu)
		if tu.Op == stream.Delete {
			oracle.Delete(tu.Key())
		} else if a.Relevant(int(tu.Label)) {
			oracle.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		}
		oracle.Expire(tu.TS-spec.Size, nil)

		snap := BatchSimple(oracle, a, tu.TS-spec.Size)
		for p := range snap {
			want[p] = struct{}{}
		}
		got := sink.Pairs()
		for p := range snap {
			if _, ok := got[p]; !ok {
				t.Fatalf("tuple %d (%v): oracle pair %v not reported", i, tu, p)
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("tuple %d (%v): engine reported %v, never a simple-path result", i, tu, p)
			}
		}
		if checkLive {
			// Live check: every snapshot result must have a live final
			// instance in the Δ index (soundness of the index in the
			// other direction does not hold for RSPQ: nodes reached
			// over non-simple traversals with containment are kept).
			for p := range snap {
				tx := e.trees[p.From]
				if tx == nil {
					t.Fatalf("tuple %d: no tree for snapshot pair %v", i, p)
				}
				if !hasFinalInstance(e, tx, p.To) {
					t.Fatalf("tuple %d: snapshot pair %v has no live final instance", i, p)
				}
			}
		}
	}
}

// hasFinalInstance reports whether any final-state instance for v —
// fresh or stale — remains in tx. It is the index-completeness probe:
// under lazy expiry a valid pair may be witnessed only by a stale
// instance whose marking blocks a fresher duplicate until the next
// slide boundary. (Liveness decisions use isLive instead.)
func hasFinalInstance(e *RSPQ, tx *tree, v stream.VertexID) bool {
	for _, s := range e.finals {
		if len(tx.inst[mkNodeKey(v, s)].slots) > 0 {
			return true
		}
	}
	return false
}

var rspqQueries = []struct {
	name   string
	expr   string
	labels []string
}{
	{"Q1-star", "a*", []string{"a", "b"}},
	{"Q4-altstar", "(a|b)*", []string{"a", "b"}},
	{"Q9-altplus", "(a|b)+", []string{"a", "b"}},
	{"Q11-concat", "a/b", []string{"a", "b"}},
	{"Q2", "a/b*", []string{"a", "b"}},
	{"Q5", "a/b*/a", []string{"a", "b"}},
	{"example", "(a/b)+", []string{"a", "b"}},
	{"Q8", "a?/b*", []string{"a", "b"}},
}

// TestRSPQMatchesSimpleOracle is the main correctness property for the
// simple-path engine on random append-only streams, covering both
// conflict-free and conflict-prone query shapes.
func TestRSPQMatchesSimpleOracle(t *testing.T) {
	for _, q := range rspqQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2020))
			a := bind(t, q.expr, q.labels...)
			for trial := 0; trial < 8; trial++ {
				tuples := randomTuples(rng, 90, 7, len(q.labels), 3, 0)
				rspqReplayOracle(t, a, window.Spec{Size: 18, Slide: 1}, tuples, true)
			}
		})
	}
}

// TestRSPQWithDeletionsMatchesOracle adds explicit deletions.
func TestRSPQWithDeletionsMatchesOracle(t *testing.T) {
	for _, q := range rspqQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(555))
			a := bind(t, q.expr, q.labels...)
			for trial := 0; trial < 8; trial++ {
				tuples := randomTuples(rng, 90, 7, len(q.labels), 3, 0.15)
				rspqReplayOracle(t, a, window.Spec{Size: 18, Slide: 1}, tuples, true)
			}
		})
	}
}

// TestRSPQLazyExpiry exercises slide intervals larger than a time unit
// — the regime where lazy expiration batches work at slide boundaries
// and reconnection order matters most. The seed's map-iteration-order
// bug made ~9-15% of runs miss an oracle pair here; with canonical
// reconnection the test is deterministic (TestRSPQReplayDeterminism
// checks that property itself).
func TestRSPQLazyExpiry(t *testing.T) {
	const seed = 8989
	rng := rand.New(rand.NewSource(seed))
	a := bind(t, "(a/b)+", "a", "b")
	spec := window.Spec{Size: 18, Slide: 4}
	for trial := 0; trial < 6; trial++ {
		tuples := randomTuples(rng, 120, 7, 2, 2, 0)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rspqReplayOracle(t, a, spec, tuples, false)
		})
	}
}

// TestRSPQSelfLoopNotSimple: a self loop never yields a simple-path
// result, even for queries accepting single letters.
func TestRSPQSelfLoopNotSimple(t *testing.T) {
	for _, expr := range []string{"a*", "a", "a+", "a*|b"} {
		sink := NewCollector()
		a := bind(t, expr, "a", "b")
		e := NewRSPQ(a, window.Spec{Size: 10, Slide: 1}, WithSink(sink))
		e.Process(stream.Tuple{TS: 1, Src: 3, Dst: 3, Label: 0})
		if len(sink.Pairs()) != 0 {
			t.Errorf("%q: self loop produced pairs %v", expr, sink.Pairs())
		}
	}
}

// TestRSPQCycleBackToRoot: a cycle x->y->x must not report (x,x) under
// simple path semantics, including for queries with the containment
// property.
func TestRSPQCycleBackToRoot(t *testing.T) {
	for _, expr := range []string{"a*", "(a|b)*", "a*|b", "a/a"} {
		sink := NewCollector()
		a := bind(t, expr, "a", "b")
		e := NewRSPQ(a, window.Spec{Size: 10, Slide: 1}, WithSink(sink))
		e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0})
		e.Process(stream.Tuple{TS: 2, Src: 2, Dst: 1, Label: 0})
		if _, ok := sink.Pairs()[Pair{From: 1, To: 1}]; ok {
			t.Errorf("%q: cycle reported (x,x) under simple path semantics", expr)
		}
	}
}

// TestRSPQMarkingsGrowth: in the absence of conflicts each
// (vertex,state) pair has at most one instance per tree, matching the
// RAPQ node bound.
func TestRSPQMarkingsGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := bind(t, "(a|b)*", "a", "b") // containment property holds: conflict-free
	e := NewRSPQ(a, window.Spec{Size: 50, Slide: 1})
	for i := 0; i < 400; i++ {
		e.Process(stream.Tuple{
			TS:    int64(i),
			Src:   stream.VertexID(rng.Intn(10)),
			Dst:   stream.VertexID(rng.Intn(10)),
			Label: stream.LabelID(rng.Intn(2)),
		})
	}
	if got := e.Stats().ConflictsFound; got != 0 {
		t.Fatalf("conflict-free query reported %d conflicts", got)
	}
	for root, tx := range e.trees {
		for key, insts := range tx.inst {
			if len(insts.slots) > 1 {
				t.Errorf("tree %d: node (%d,%d) has %d instances in a conflict-free run",
					root, key.vertex(), key.state(), len(insts.slots))
			}
		}
	}
}

// TestRSPQMaxExtendsBudget: the safety valve stops cascades without
// crashing; the engine remains usable afterwards.
func TestRSPQMaxExtendsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := bind(t, "(a/b)+", "a", "b")
	e := NewRSPQ(a, window.Spec{Size: 1000, Slide: 1}, WithMaxExtends(5))
	for i := 0; i < 500; i++ {
		e.Process(stream.Tuple{
			TS:    int64(i),
			Src:   stream.VertexID(rng.Intn(12)),
			Dst:   stream.VertexID(rng.Intn(12)),
			Label: stream.LabelID(rng.Intn(2)),
		})
	}
	// No assertion beyond termination and internal consistency.
	st := e.Stats()
	if st.TuplesSeen != 500 {
		t.Fatalf("TuplesSeen = %d", st.TuplesSeen)
	}
}

// TestRSPQOverheadCounters: RSPQ does strictly more bookkeeping than
// RAPQ on the same input; its Extend count must be at least RAPQ's
// Insert count on conflict-free inputs (§5.5 measures this overhead).
func TestRSPQStatsProbes(t *testing.T) {
	a := bind(t, "(follows/mentions)+", "follows", "mentions")
	rs := NewRSPQ(a, window.Spec{Size: 15, Slide: 1})
	ra := NewRAPQ(a, window.Spec{Size: 15, Slide: 1})
	for _, tu := range paperStream() {
		rs.Process(tu)
		ra.Process(tu)
	}
	if rs.Stats().TuplesSeen != ra.Stats().TuplesSeen {
		t.Fatal("engines saw different tuple counts")
	}
	if rs.Stats().InsertCalls == 0 {
		t.Fatal("RSPQ recorded no Extend calls")
	}
}
