package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// bind compiles an expression against a fixed label dictionary.
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

// nodeTS returns the timestamp of the node keyed k and whether it
// exists.
func (tx *tree) nodeTS(k nodeKey) (int64, bool) {
	slot := tx.ns.lookup(k)
	if slot < 0 {
		return 0, false
	}
	return tx.ns.nodes[slot].ts, true
}

// nodeParent returns the key of the node's parent and whether the node
// exists.
func (tx *tree) nodeParent(k nodeKey) (nodeKey, bool) {
	slot := tx.ns.lookup(k)
	if slot < 0 {
		return 0, false
	}
	return tx.ns.nodes[tx.ns.nodes[slot].parent].key, true
}

// forEachNode calls f for every live node.
func (tx *tree) forEachNode(f func(k nodeKey, ts int64)) {
	for slot, n := range tx.ns.nodes {
		if tx.ns.live(int32(slot)) {
			f(n.key, n.ts)
		}
	}
}

// paperStream is the streaming graph of Figure 1(a): labels follows=f,
// mentions=m.
func paperStream() []stream.Tuple {
	const f, m = 0, 1
	mk := func(ts int64, src, dst stream.VertexID, l stream.LabelID) stream.Tuple {
		return stream.Tuple{TS: ts, Src: src, Dst: dst, Label: l}
	}
	// vertices: x=0 y=1 z=2 u=3 v=4 w=5
	const x, y, z, u, v, w = 0, 1, 2, 3, 4, 5
	return []stream.Tuple{
		mk(4, y, u, m),
		mk(6, x, z, f),
		mk(9, u, v, f),
		mk(11, z, w, m),
		mk(13, x, y, f),
		mk(14, z, u, m),
		mk(15, u, x, m),
		mk(18, v, y, m),
		mk(19, w, u, f),
	}
}

func pairNames(pairs map[Pair]struct{}) []string {
	names := []string{"x", "y", "z", "u", "v", "w"}
	var out []string
	for p := range pairs {
		out = append(out, fmt.Sprintf("(%s,%s)", names[p.From], names[p.To]))
	}
	return out
}

// TestRAPQPaperExample replays Figure 1's stream against the query
// Q1 = (follows/mentions)+ with |W|=15, β=1 and checks the cumulative
// result set derived in §3's examples.
func TestRAPQPaperExample(t *testing.T) {
	a := bind(t, "(follows/mentions)+", "follows", "mentions")
	sink := NewCollector()
	e := NewRAPQ(a, window.Spec{Size: 15, Slide: 1}, WithSink(sink))
	for _, tu := range paperStream() {
		e.Process(tu)
	}
	// x=0 y=1 z=2 u=3 v=4 w=5.
	want := map[Pair]struct{}{
		{From: 0, To: 5}: {}, // (x,w) via x-f->z-m->w at t=11
		{From: 0, To: 3}: {}, // (x,u) via x-f->y-m->u at t=13
		{From: 0, To: 1}: {}, // (x,y) via x..v-m->y at t=18
		{From: 3, To: 1}: {}, // (u,y) via u-f->v-m->y at t=18
		{From: 0, To: 0}: {}, // (x,x) via x-f->z, z-m->w, w-f->u, u-m->x at t=19
		{From: 5, To: 0}: {}, // (w,x) via w-f->u-m->x at t=19
		{From: 5, To: 5}: {}, // (w,w) via w-f->u-m->x-f->z-m->w at t=19
		{From: 5, To: 3}: {}, // (w,u) via w-f->u-m->x-f->z-m->u at t=19
		{From: 5, To: 1}: {}, // (w,y) via w,u,x,z,u,v,y (arbitrary semantics revisits u)
	}
	got := sink.Pairs()
	if len(got) != len(want) {
		t.Fatalf("result pairs = %v, want %v", pairNames(got), pairNames(want))
	}
	for p := range want {
		if _, ok := got[p]; !ok {
			t.Errorf("missing pair %v; got %v", p, pairNames(got))
		}
	}
	// The x-rooted spanning tree must hold the refreshed timestamps of
	// Figure 2(b) (our engine propagates refreshes eagerly).
	st := e.Stats()
	if st.Trees == 0 || st.Nodes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

// TestRAPQTreeTimestamps checks node timestamps of the spanning tree
// Tx of the running example (Figure 2, with eager refresh propagation:
// (u,2) and descendants carry timestamp 6 after the edge (z,u) at t=14).
func TestRAPQTreeTimestamps(t *testing.T) {
	a := bind(t, "(follows/mentions)+", "follows", "mentions")
	e := NewRAPQ(a, window.Spec{Size: 15, Slide: 1})
	for _, tu := range paperStream() {
		if tu.TS > 18 {
			break
		}
		e.Process(tu)
	}
	tx := e.treeOf(0) // rooted at x
	if tx == nil {
		t.Fatal("tree Tx missing")
	}
	wantTS := map[nodeKey]int64{
		mkNodeKey(1, 1): 13, // (y,1)
		mkNodeKey(2, 1): 6,  // (z,1)
		mkNodeKey(3, 2): 6,  // (u,2) refreshed via (z,u)@14
		mkNodeKey(4, 1): 6,  // (v,1) refresh propagated
		mkNodeKey(1, 2): 6,  // (y,2) created at t=18 under (v,1)
		mkNodeKey(5, 2): 6,  // (w,2)
	}
	for key, want := range wantTS {
		ts, ok := tx.nodeTS(key)
		if !ok {
			t.Errorf("node (%d,%d) missing", key.vertex(), key.state())
			continue
		}
		if ts != want {
			t.Errorf("node (%d,%d).ts = %d, want %d", key.vertex(), key.state(), ts, want)
		}
	}
}

// TestRAPQExpiryReconnect reproduces Example 3.2: at t=19 the edge
// (w,u,follows) arrives, old paths through (y,u,mentions)@4 expire, and
// (u,2) must hang under the valid edge (z,u,mentions)@14. The paper's
// expiry pass reconnects it there; here eager propagation moved it when
// that edge arrived, so the pass only prunes.
func TestRAPQExpiryReconnect(t *testing.T) {
	a := bind(t, "(follows/mentions)+", "follows", "mentions")
	e := NewRAPQ(a, window.Spec{Size: 15, Slide: 1})
	for _, tu := range paperStream() {
		e.Process(tu)
	}
	tx := e.treeOf(0)
	if tx == nil {
		t.Fatal("tree Tx missing")
	}
	// After t=19: (u,1) under (w,2), (x,2) under (u,1).
	for _, k := range []nodeKey{mkNodeKey(3, 1), mkNodeKey(0, 2)} {
		if _, ok := tx.nodeTS(k); !ok {
			t.Errorf("node (%d,%d) missing after t=19", k.vertex(), k.state())
		}
	}
	// (u,2) still present, under (z,1).
	pk, ok := tx.nodeParent(mkNodeKey(3, 2))
	if !ok {
		t.Fatal("(u,2) missing after expiry")
	}
	if pk != mkNodeKey(2, 1) {
		t.Errorf("(u,2) parent = (%d,%d), want (z,1)", pk.vertex(), pk.state())
	}
}

// replayOracle replays a stream and checks, after every tuple, that
// the engine's cumulative result set equals the union of batch results
// over all per-tuple snapshots, and (with slide=1) that the live tree
// state matches the current snapshot exactly.
func replayOracle(t *testing.T, a *automaton.Bound, spec window.Spec, tuples []stream.Tuple, checkTreeState bool) {
	t.Helper()
	sink := NewCollector()
	e := NewRAPQ(a, spec, WithSink(sink))

	oracle := graph.New()
	want := map[Pair]struct{}{}
	for i, tu := range tuples {
		e.Process(tu)

		// Maintain the oracle's window content.
		if tu.Op == stream.Delete {
			oracle.Delete(tu.Key())
		} else if a.Relevant(int(tu.Label)) {
			oracle.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		}
		oracle.Expire(tu.TS-spec.Size, nil)

		snap := BatchArbitrary(oracle, a, tu.TS-spec.Size)
		for p := range snap {
			want[p] = struct{}{}
		}
		got := sink.Pairs()
		for p := range snap {
			if _, ok := got[p]; !ok {
				t.Fatalf("tuple %d (%v): oracle pair %v not reported; engine has %d pairs",
					i, tu, p, len(got))
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("tuple %d (%v): engine reported %v, never valid in any snapshot", i, tu, p)
			}
		}
		if checkTreeState {
			// With slide=1 expiry runs every time unit, so the live
			// final nodes must match the current snapshot exactly.
			live := map[Pair]struct{}{}
			for _, id := range e.allTrees() {
				tx := &e.trees[id]
				root := tx.root
				rootKey := mkNodeKey(root, a.Start)
				tx.forEachNode(func(key nodeKey, ts int64) {
					if key == rootKey {
						return // the empty path is not a result
					}
					if a.Final[key.state()] && ts > tu.TS-spec.Size {
						live[Pair{From: root, To: key.vertex()}] = struct{}{}
					}
				})
			}
			for p := range snap {
				if _, ok := live[p]; !ok {
					t.Fatalf("tuple %d: snapshot pair %v not live in Δ", i, p)
				}
			}
			for p := range live {
				if _, ok := snap[p]; !ok {
					t.Fatalf("tuple %d: Δ holds stale pair %v", i, p)
				}
			}
		}
	}
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

var oracleQueries = []struct {
	name   string
	expr   string
	labels []string
}{
	{"Q1-star", "a*", []string{"a", "b", "c"}},
	{"Q2", "a/b*", []string{"a", "b", "c"}},
	{"Q3", "a/b*/c*", []string{"a", "b", "c"}},
	{"Q4-altstar", "(a|b|c)*", []string{"a", "b", "c"}},
	{"Q5", "a/b*/c", []string{"a", "b", "c"}},
	{"Q9-altplus", "(a|b|c)+", []string{"a", "b", "c"}},
	{"Q11-concat", "a/b/c", []string{"a", "b", "c"}},
	{"example", "(a/b)+", []string{"a", "b", "c"}},
	{"opt", "a?/b*", []string{"a", "b", "c"}},
}

// TestRAPQMatchesBatchOracle is the main correctness property for the
// arbitrary-semantics engine: on random append-only streams, for every
// Table-2 query shape, the engine's cumulative output equals the union
// of batch evaluations over all window snapshots, and the Δ index state
// mirrors the current snapshot.
func TestRAPQMatchesBatchOracle(t *testing.T) {
	for _, q := range oracleQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12345))
			a := bind(t, q.expr, q.labels...)
			for trial := 0; trial < 6; trial++ {
				tuples := randomTuples(rng, 150, 8, len(q.labels), 3, 0)
				replayOracle(t, a, window.Spec{Size: 20, Slide: 1}, tuples, true)
			}
		})
	}
}

// TestRAPQWithDeletionsMatchesOracle adds explicit deletions to the
// stream; soundness and completeness of the cumulative stream must be
// preserved, and the Δ index state must still track the snapshot.
func TestRAPQWithDeletionsMatchesOracle(t *testing.T) {
	for _, q := range oracleQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			a := bind(t, q.expr, q.labels...)
			for trial := 0; trial < 6; trial++ {
				tuples := randomTuples(rng, 150, 8, len(q.labels), 3, 0.15)
				replayOracle(t, a, window.Spec{Size: 20, Slide: 1}, tuples, true)
			}
		})
	}
}

// TestRAPQLazyExpiry uses a slide interval larger than one time unit:
// results must remain sound (valid in some snapshot) and complete.
func TestRAPQLazyExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	a := bind(t, "(a/b)+", "a", "b", "c")
	for trial := 0; trial < 6; trial++ {
		tuples := randomTuples(rng, 200, 8, 3, 2, 0)
		replayOracle(t, a, window.Spec{Size: 20, Slide: 5}, tuples, false)
	}
}

// TestRAPQInvalidationsSound: every invalidation emitted after an
// explicit deletion refers to a pair that is indeed no longer valid in
// the current snapshot.
func TestRAPQInvalidationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	a := bind(t, "a/b*", "a", "b")
	oracle := graph.New()
	var bad []string
	sink := FuncSink{
		Invalidate: func(m Match) {
			snap := BatchArbitrary(oracle, a, m.TS-50)
			if _, still := snap[Pair{From: m.From, To: m.To}]; still {
				bad = append(bad, fmt.Sprintf("invalidated %v still valid at %d", m, m.TS))
			}
		},
	}
	engine := NewRAPQ(a, window.Spec{Size: 50, Slide: 1}, WithSink(sink))
	tuples := randomTuples(rng, 300, 10, 2, 2, 0.2)
	for _, tu := range tuples {
		// Keep the oracle in sync *before* processing so the sink sees
		// the post-update window.
		if tu.Op == stream.Delete {
			oracle.Delete(tu.Key())
		} else if a.Relevant(int(tu.Label)) {
			oracle.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		}
		oracle.Expire(tu.TS-50, nil)
		engine.Process(tu)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

func TestRAPQIrrelevantLabelsDropped(t *testing.T) {
	a := bind(t, "a", "a", "b")
	e := NewRAPQ(a, window.Spec{Size: 10, Slide: 1})
	e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 1}) // label b
	st := e.Stats()
	if st.TuplesDropped != 1 {
		t.Fatalf("TuplesDropped = %d, want 1", st.TuplesDropped)
	}
	if st.Edges != 0 {
		t.Fatalf("irrelevant edge stored: %d edges", st.Edges)
	}
}

func TestRAPQDeleteAbsentEdge(t *testing.T) {
	a := bind(t, "a", "a")
	e := NewRAPQ(a, window.Spec{Size: 10, Slide: 1})
	e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0, Op: stream.Delete})
	if st := e.Stats(); st.Edges != 0 || st.Trees != 0 {
		t.Fatalf("delete of absent edge mutated state: %+v", st)
	}
}

func TestRAPQTreeGC(t *testing.T) {
	a := bind(t, "a+", "a")
	e := NewRAPQ(a, window.Spec{Size: 5, Slide: 1})
	e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0})
	if st := e.Stats(); st.Trees != 1 {
		t.Fatalf("Trees = %d, want 1", st.Trees)
	}
	// Advance far beyond the window: everything must be reclaimed.
	e.Process(stream.Tuple{TS: 100, Src: 7, Dst: 8, Label: 0})
	e.Process(stream.Tuple{TS: 200, Src: 9, Dst: 10, Label: 0})
	st := e.Stats()
	if st.Trees != 1 { // only the t=200 tree remains
		t.Fatalf("Trees = %d, want 1 (old trees not reclaimed)", st.Trees)
	}
	if st.Edges != 1 {
		t.Fatalf("Edges = %d, want 1", st.Edges)
	}
}

func TestRAPQSelfLoop(t *testing.T) {
	a := bind(t, "a+", "a")
	sink := NewCollector()
	e := NewRAPQ(a, window.Spec{Size: 10, Slide: 1}, WithSink(sink))
	e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 1, Label: 0})
	if _, ok := sink.Live[Pair{From: 1, To: 1}]; !ok {
		t.Fatal("self loop (1,1) not reported for a+")
	}
}

func TestRAPQDuplicateEdgeRefresh(t *testing.T) {
	a := bind(t, "a/b", "a", "b")
	sink := NewCollector()
	e := NewRAPQ(a, window.Spec{Size: 10, Slide: 1}, WithSink(sink))
	e.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0})
	e.Process(stream.Tuple{TS: 5, Src: 2, Dst: 3, Label: 1})
	if _, ok := sink.Live[Pair{From: 1, To: 3}]; !ok {
		t.Fatal("(1,3) missing")
	}
	// Refresh the first edge; the path must now survive until t=21.
	e.Process(stream.Tuple{TS: 11, Src: 1, Dst: 2, Label: 0})
	e.Process(stream.Tuple{TS: 20, Src: 9, Dst: 9, Label: 0}) // advance time
	tx := e.treeOf(1)
	if tx == nil {
		t.Fatal("tree gone after refresh")
	}
	if ts, ok := tx.nodeTS(mkNodeKey(2, 1)); !ok || ts != 11 {
		t.Fatalf("(2,1) not refreshed: ts=%d ok=%v", ts, ok)
	}
}

// TestRAPQDeleteSettlesOnce: a deletion repairs the marked subtree in
// place, settling each node once at its max-min timestamp. In the tree
// of r, h hangs under m (ts 5, over the older route r→m2→h at 4), B
// under h and A under B, though A is also reached from o at 1. Deleting
// m→h marks h, B and A; the widest path first settles h under m2 at 4,
// then B and A at 4 — A's offer from o never settles it — all three in
// their own slots. The tree of m loses all three and retracts them.
func TestRAPQDeleteSettlesOnce(t *testing.T) {
	a := bind(t, "a+", "a")
	const r, o, A, m2, h, m, B = 0, 1, 2, 3, 4, 5, 6
	sink := NewCollector()
	e := NewRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(sink))
	for _, tu := range []stream.Tuple{
		{TS: 1, Src: r, Dst: o}, {TS: 1, Src: o, Dst: A},
		{TS: 4, Src: r, Dst: m2}, {TS: 4, Src: m2, Dst: h},
		{TS: 5, Src: r, Dst: m}, {TS: 5, Src: m, Dst: h}, {TS: 5, Src: h, Dst: B}, {TS: 5, Src: B, Dst: A},
	} {
		e.Process(tu)
	}
	tx := e.treeOf(r)
	cut := []stream.VertexID{h, B, A}
	slots := make([]int32, len(cut))
	for i, v := range cut {
		if slots[i] = tx.ns.lookup(mkNodeKey(v, 1)); slots[i] < 0 {
			t.Fatalf("(%d,1) missing from the tree of r", v)
		}
	}
	if ts, _ := tx.nodeTS(mkNodeKey(A, 1)); ts != 5 {
		t.Fatalf("A.ts = %d before the delete, want 5", ts)
	}
	before := e.Stats()
	e.Process(stream.Tuple{TS: 6, Src: m, Dst: h, Op: stream.Delete})
	after := e.Stats()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, v := range cut {
		if got := tx.ns.lookup(mkNodeKey(v, 1)); got != slots[i] {
			t.Errorf("(%d,1) moved from slot %d to %d", v, slots[i], got)
		}
		if ts, _ := tx.nodeTS(mkNodeKey(v, 1)); ts != 4 {
			t.Errorf("(%d,1).ts = %d after the delete, want 4", v, ts)
		}
	}
	if pk, _ := tx.nodeParent(mkNodeKey(h, 1)); pk != mkNodeKey(m2, 1) {
		t.Errorf("h hangs under (%d,%d), want (m2,1)", pk.vertex(), pk.state())
	}
	if got := after.InsertCalls - before.InsertCalls; got != 3 {
		t.Errorf("the delete made %d insert calls, want 3", got)
	}
	if got := after.Results - before.Results; got != 0 {
		t.Errorf("the delete emitted %d matches", got)
	}
	want := []Match{{From: m, To: A, TS: 6}, {From: m, To: h, TS: 6}, {From: m, To: B, TS: 6}}
	if !slices.Equal(sink.Retract, want) {
		t.Errorf("retractions %v, want %v", sink.Retract, want)
	}
}

// TestRAPQDeleteNestedTreeEdges: one deleted edge can be a tree edge
// twice in one tree, the second nested in the subtree of the first. For
// a/b/a over u→v (a) and v→u (b), the tree of u holds (v,1) under the
// root and (v,3) under (u,2) below it, both over u→v: deleting the edge
// marks the nested subtree once, and the tree shrinks to its root.
func TestRAPQDeleteNestedTreeEdges(t *testing.T) {
	a := bind(t, "a/b/a", "a", "b")
	const u, v = 0, 1
	sink := NewCollector()
	e := NewRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(sink))
	uv := stream.Tuple{TS: 1, Src: u, Dst: v, Label: 0}
	e.Process(uv)
	e.Process(stream.Tuple{TS: 2, Src: v, Dst: u, Label: 1})
	tx := e.treeOf(u)
	for _, c := range []struct{ child, parent nodeKey }{
		{mkNodeKey(v, 1), mkNodeKey(u, 0)},
		{mkNodeKey(v, 3), mkNodeKey(u, 2)},
	} {
		if pk, ok := tx.nodeParent(c.child); !ok || pk != c.parent {
			t.Fatalf("(%d,%d) hangs under (%d,%d), want (%d,%d)", c.child.vertex(), c.child.state(),
				pk.vertex(), pk.state(), c.parent.vertex(), c.parent.state())
		}
	}
	e.Process(stream.Tuple{TS: 3, Src: u, Dst: v, Label: 0, Op: stream.Delete})
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after the delete: %v", err)
	}
	if e.treeOf(u) != nil || len(sink.Retract) != 1 || len(sink.Live) != 0 {
		t.Fatalf("after the delete: tree of u kept %v, retractions %v, live %v", e.treeOf(u) != nil, sink.Retract, sink.Live)
	}
	uv.TS = 4
	e.Process(uv)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after the re-insert: %v", err)
	}
	if _, ok := sink.Live[Pair{From: u, To: v}]; !ok {
		t.Fatal("(u,v) not live again after the re-insert")
	}
}

// TestOfferHeapOrder: the repair's heap pops offers widest first, ties
// in push order, across interleaved pushes and pops.
func TestOfferHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var sc scratch
	var model []offer
	seq := int64(0)
	for step := range 2000 {
		if len(model) == 0 || rng.Intn(3) > 0 {
			o := offer{ts: rng.Int63n(8), seq: seq, slot: int32(step)}
			seq++
			sc.push(o)
			model = append(model, o)
			continue
		}
		best := 0
		for i, o := range model {
			if o.before(model[best]) {
				best = i
			}
		}
		if got := sc.pop(); got != model[best] {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, model[best])
		}
		model = slices.Delete(model, best, best+1)
	}
	if len(sc.heap) != len(model) {
		t.Fatalf("heap holds %d offers, the model %d", len(sc.heap), len(model))
	}
}

// TestEnginesRejectOversizedAutomaton: a node key holds the automaton
// state in 16 bits, so an automaton beyond MaxStates would alias nodes.
// streamrpq.Compile refuses such patterns; the constructors assert it.
func TestEnginesRejectOversizedAutomaton(t *testing.T) {
	spec := window.Spec{Size: 10, Slide: 1}
	for name, construct := range map[string]func(a *automaton.Bound){
		"RAPQ": func(a *automaton.Bound) { NewRAPQ(a, spec) },
		"RSPQ": func(a *automaton.Bound) { NewRSPQ(a, spec) },
	} {
		construct(&automaton.Bound{K: MaxStates, Final: make([]bool, MaxStates)})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an automaton of MaxStates+1 states", name)
				}
			}()
			construct(&automaton.Bound{K: MaxStates + 1, Final: make([]bool, MaxStates+1)})
		}()
	}
}
