package core

import (
	"slices"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// The pointer-free hot path is an allocation contract, not just a
// layout: steady-state inserts must not allocate per edge. Node slots,
// cascade stacks, adjacency buffers, and inverted-index rows are all
// reused, so once the working set exists, re-processing edges is
// alloc-free up to amortized slice growth (graph FIFO appends, slab
// doubling). These tests pin that contract with testing.AllocsPerRun;
// they run as a blocking CI step.

// chainTuples builds a chain v0 -a-> v1 -b-> v2 -a-> ... so an a/b
// query grows a tree under every other vertex.
func chainTuples(n int, ts int64) []stream.Tuple {
	out := make([]stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.Tuple{
			TS:    ts,
			Src:   stream.VertexID(i),
			Dst:   stream.VertexID(i + 1),
			Label: stream.LabelID(i % 2),
		})
	}
	return out
}

// TestRAPQInsertSteadyStateAllocs: re-processing a warmed-up working
// set must average well under one allocation per tuple, on both the
// skip path (same timestamp, cascade pruned at the first node) and the
// refresh path (newer timestamp, full cascade re-walks the subtree and
// rewrites slots in place).
func TestRAPQInsertSteadyStateAllocs(t *testing.T) {
	a := bind(t, "a/b", "a", "b")
	// Window large enough that the measured runs never cross a slide
	// boundary: expiry has its own (amortized) costs and its own test.
	e := NewRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(discardSink{}))
	const n = 64
	tuples := chainTuples(n, 1)
	for _, tu := range tuples {
		e.Process(tu)
	}

	t.Run("same-ts skip path", func(t *testing.T) {
		avg := testing.AllocsPerRun(50, func() {
			for _, tu := range tuples {
				e.Process(tu)
			}
		})
		if perTuple := avg / n; perTuple >= 0.5 {
			t.Errorf("same-ts re-insert allocates %.2f/tuple (avg %.1f per %d-tuple run), want < 0.5", perTuple, avg, n)
		}
	})

	t.Run("refresh cascade", func(t *testing.T) {
		ts := int64(1)
		avg := testing.AllocsPerRun(50, func() {
			ts++
			for _, tu := range tuples {
				tu.TS = ts
				e.Process(tu)
			}
		})
		if perTuple := avg / n; perTuple >= 0.5 {
			t.Errorf("refresh cascade allocates %.2f/tuple (avg %.1f per %d-tuple run), want < 0.5", perTuple, avg, n)
		}
	})
}

// TestRAPQExpirySteadyStateAllocs: a working set that is re-inserted
// round after round while the window slides over it pays an expiry pass
// at every slide boundary: the nodes whose paths still carry the previous
// round's timestamps are pruned (improvements were propagated eagerly, so
// a stale node has no valid path left to reconnect through), and the
// stream grows them back. Slots, table buckets and index rows are all
// recycled, so the whole cycle must stay well under one allocation per
// tuple.
func TestRAPQExpirySteadyStateAllocs(t *testing.T) {
	a := bind(t, "a+", "a")
	// A ladder v_i -> v_{i+1}, v_i -> v_{i+2}: every vertex roots a tree
	// that never shrinks to its root.
	var tuples []stream.Tuple
	for i := stream.VertexID(0); i < 32; i++ {
		tuples = append(tuples, stream.Tuple{Src: i, Dst: i + 1}, stream.Tuple{Src: i, Dst: i + 2})
	}
	n := int64(len(tuples))
	e := NewRAPQ(a, window.Spec{Size: n, Slide: n / 8}, WithSink(discardSink{}))
	ts := int64(0)
	round := func() {
		for _, tu := range tuples {
			ts++
			tu.TS = ts
			e.Process(tu)
		}
	}
	for range 4 {
		round()
	}
	before := e.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := e.Stats()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A pruned node comes back with a match, so the result count shows
	// that the passes had work.
	if after.ExpiryRuns-before.ExpiryRuns < 8*50 || after.Results-before.Results < 8*50 || after.Nodes != before.Nodes {
		t.Fatalf("not a steady state of pruning and regrowth:\nbefore %+v\n after %+v", before, after)
	}
	if perTuple := avg / float64(n); perTuple >= 0.5 {
		t.Errorf("expiry allocates %.2f/tuple (avg %.1f per %d-tuple round), want < 0.5", perTuple, avg, n)
	}
}

// The vertices of newDeleteChain: r reaches h over m1 (the fresher
// route) and over m2, a chain of dcLen vertices from c0 hangs off h, and
// m1 -> z keeps the tree of m1 alive while h is cut.
const (
	dcR, dcM1, dcM2, dcH, dcZ, dcC0 = 0, 1, 2, 3, 4, 10
	dcLen                           = 32
)

// newDeleteChain builds the delete steady-state fixture under a+ and an
// unbounded window, and returns its engine with two steps: del deletes
// m1 -> h at the next timestamp, ins re-inserts it at the same one.
func newDeleteChain(tb testing.TB) (e *RAPQ, del, ins func()) {
	setup := []stream.Tuple{
		{Src: dcR, Dst: dcM2}, {Src: dcM2, Dst: dcH}, // the older route
		{Src: dcR, Dst: dcM1}, {Src: dcM1, Dst: dcH},
		{Src: dcM1, Dst: dcZ},
		{Src: dcH, Dst: dcC0},
	}
	for i := stream.VertexID(0); i < dcLen-1; i++ {
		setup = append(setup, stream.Tuple{Src: dcC0 + i, Dst: dcC0 + i + 1})
	}
	e = NewRAPQ(bind(tb, "a+", "a"), window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(discardSink{}))
	ts := int64(0)
	for _, tu := range setup {
		ts++
		tu.TS = ts
		e.Process(tu)
	}
	del = func() {
		ts++
		e.Process(stream.Tuple{TS: ts, Src: dcM1, Dst: dcH, Op: stream.Delete})
	}
	ins = func() { e.Process(stream.Tuple{TS: ts, Src: dcM1, Dst: dcH}) }
	return e, del, ins
}

// TestRAPQDeleteSteadyStateAllocs: Algorithm Delete runs on the same
// recycled structures. Deleting m1 -> h in newDeleteChain marks h's
// subtree in the two trees where it hangs under m1: the tree of r
// repairs it in place through m2 — h and every node of the chain settled
// once in its own slot, none retracted — and the tree of m1 loses it and
// retracts every pair; re-inserting the edge moves h back under m1 in the
// one and grows the chain back in the other. The pair of tuples must not
// allocate.
func TestRAPQDeleteSteadyStateAllocs(t *testing.T) {
	e, del, ins := newDeleteChain(t)
	round := func() { del(); ins() }
	round()
	// The slots of h and the chain in the tree of r.
	cut := func() []int32 {
		slots := []int32{e.treeOf(dcR).ns.lookup(mkNodeKey(dcH, 1))}
		for i := stream.VertexID(0); i < dcLen; i++ {
			slots = append(slots, e.treeOf(dcR).ns.lookup(mkNodeKey(dcC0+i, 1)))
		}
		return slots
	}
	slots := cut()
	before := e.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := e.Stats()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := cut(); !slices.Equal(got, slots) || slices.Contains(slots, -1) {
		t.Fatalf("h and the chain moved in the tree of r: slots %v, then %v", slots, got)
	}
	// h and the chain, retracted in the tree of m1 only: the tree of r
	// repaired them.
	if got, want := after.Invalidations-before.Invalidations, int64(51*(dcLen+1)); got != want || after.Nodes != before.Nodes {
		t.Fatalf("not a steady state of cut and reconnection: %d invalidations, want %d; nodes %d -> %d",
			got, want, before.Nodes, after.Nodes)
	}
	if perTuple := avg / 2; perTuple >= 0.5 {
		t.Errorf("delete + re-insert allocates %.2f/tuple (avg %.1f per pair), want < 0.5", perTuple, avg)
	}
}

// TestRAPQIndexReentryAllocs: a vertex that leaves its last tree gives
// up its inverted-index row, and its row array is parked for the next
// row. Tree r stays alive through r -> y; deleting r -> x takes x out of
// the only tree it is in, and re-inserting the edge brings it back.
// Once warm, the pair of tuples must not allocate.
func TestRAPQIndexReentryAllocs(t *testing.T) {
	a := bind(t, "a+", "a")
	const r, x, y = 0, 1, 2
	e := NewRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(discardSink{}))
	e.Process(stream.Tuple{TS: 1, Src: r, Dst: y})
	ts := int64(1)
	left := true
	round := func() {
		ts++
		e.Process(stream.Tuple{TS: ts, Src: r, Dst: x, Op: stream.Delete})
		left = left && e.inv.row(x) == nil
		e.Process(stream.Tuple{TS: ts, Src: r, Dst: x})
	}
	for range 4 {
		round()
	}
	avg := testing.AllocsPerRun(100, round)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !left || len(e.inv.of(x, r)) == 0 || e.Stats().Trees != 1 {
		t.Fatalf("x did not leave and re-enter the one tree: left %v, %+v", left, e.Stats())
	}
	if avg != 0 {
		t.Errorf("leaving the last tree and re-entering allocates %.0f times per round", avg)
	}
}

// TestRAPQTreeChurnAllocs: trees that come and go with the window are
// the one growth that never stops. With a one-tick window and the clock
// advancing two ticks a round, every round's first tuple expires the
// whole previous round, so all 64 trees of the chain are dropped and
// grown again from their roots (2 144 nodes). A tree's growth must cost
// a few re-allocations of its one node array and key table, not one per
// node field, and a rebuilt tree takes a dropped one's slot of the tree
// table, not a heap record: at most 11 allocations per rebuilt tree.
func TestRAPQTreeChurnAllocs(t *testing.T) {
	a := bind(t, "a+", "a")
	const n = 64
	var tuples []stream.Tuple
	for i := stream.VertexID(0); i < n; i++ {
		tuples = append(tuples, stream.Tuple{Src: i, Dst: i + 1})
	}
	e := NewRAPQ(a, window.Spec{Size: 1, Slide: 1}, WithSink(discardSink{}))
	ts := int64(0)
	round := func() {
		ts += 2
		for _, tu := range tuples {
			tu.TS = ts
			e.Process(tu)
		}
	}
	for range 4 {
		round()
	}
	before := e.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := e.Stats()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every pair went dead with its round and is matched again: the trees
	// were rebuilt, not refreshed.
	const pairs = n * (n + 1) / 2
	if after.Trees != n || after.Nodes != pairs+n || after.Results-before.Results != 51*pairs {
		t.Fatalf("not a steady state of tree churn:\nbefore %+v\n after %+v", before, after)
	}
	if perTree := avg / n; perTree > 11 {
		t.Errorf("tree churn allocates %.1f per rebuilt tree (avg %.0f per %d-tree round), want at most 11", perTree, avg, n)
	}
}

// TestMultiRelevanceDispatchAllocs: the relevance-ordered dispatch of
// the multi-query coordinator must add no allocations of its own — the
// per-label group lists are built at registration and Groups() returns
// a shared slice, so a steady-state tuple costs only what its member
// engines cost.
func TestMultiRelevanceDispatchAllocs(t *testing.T) {
	m, err := NewMulti(window.Spec{Size: 1 << 40, Slide: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b", "c"}
	// Three groups with different alphabets, so every tuple exercises
	// both the dispatch list and the skip accounting.
	for _, expr := range []string{"a/b", "a/b", "a+", "c*"} {
		if _, err := m.Add(bind(t, expr, labels...)); err != nil {
			t.Fatal(err)
		}
	}
	const n = 64
	tuples := chainTuples(n, 1)
	for _, tu := range tuples {
		m.Process(tu)
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, tu := range tuples {
			m.Process(tu)
		}
	})
	if perTuple := avg / n; perTuple >= 0.5 {
		t.Errorf("relevance dispatch allocates %.2f/tuple (avg %.1f per %d-tuple run), want < 0.5", perTuple, avg, n)
	}
}
