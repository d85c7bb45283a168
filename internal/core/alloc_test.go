package core

import (
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
// round's timestamps are noted, pruned and offered for reconnection
// (standalone and append-only none finds a parent: improvements were
// propagated eagerly, so a stale node has no valid path left), and the
// stream grows them back. Slots, table buckets, census records, index
// rows and the pass record are all recycled, so the whole cycle must stay
// well under one allocation per tuple.
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

// TestRAPQDeleteSteadyStateAllocs: Algorithm Delete runs on the same
// recycled structures. A chain hangs off h, and h is reached from r over
// m1 (the fresher route) and over m2. Deleting m1 -> h marks h's subtree
// in the two trees where it hangs under m1: the tree of r reconnects it
// through m2 — every node of the chain pruned, re-added, none retracted —
// and the tree of m1 loses it and retracts every pair; re-inserting the
// edge moves h back under m1 in the one and grows the chain back in the
// other. The pair of tuples must not allocate.
func TestRAPQDeleteSteadyStateAllocs(t *testing.T) {
	a := bind(t, "a+", "a")
	const r, m1, m2, h, z, c0, chain = 0, 1, 2, 3, 4, 10, 32
	setup := []stream.Tuple{
		{Src: r, Dst: m2}, {Src: m2, Dst: h}, // the older route
		{Src: r, Dst: m1}, {Src: m1, Dst: h},
		{Src: m1, Dst: z}, // keeps the tree of m1 alive while h is cut
		{Src: h, Dst: c0},
	}
	for i := stream.VertexID(0); i < chain-1; i++ {
		setup = append(setup, stream.Tuple{Src: c0 + i, Dst: c0 + i + 1})
	}
	e := NewRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, WithSink(discardSink{}))
	ts := int64(0)
	for _, tu := range setup {
		ts++
		tu.TS = ts
		e.Process(tu)
	}
	round := func() {
		ts++
		e.Process(stream.Tuple{TS: ts, Src: m1, Dst: h, Op: stream.Delete})
		e.Process(stream.Tuple{TS: ts, Src: m1, Dst: h})
	}
	round()
	before := e.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := e.Stats()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// h and the chain, retracted in the tree of m1 only: the tree of r
	// reconnected them.
	if got, want := after.Invalidations-before.Invalidations, int64(51*(chain+1)); got != want || after.Nodes != before.Nodes {
		t.Fatalf("not a steady state of cut and reconnection: %d invalidations, want %d; nodes %d -> %d",
			got, want, before.Nodes, after.Nodes)
	}
	if perTuple := avg / 2; perTuple >= 0.5 {
		t.Errorf("delete + re-insert allocates %.2f/tuple (avg %.1f per pair), want < 0.5", perTuple, avg)
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

// TestParallelRAPQFanOutAllocs: the tree-parallel fan-out may allocate
// per call (the work closure, one closure per worker goroutine), but
// never per tree or per edge. A hub tuple touching 64 trees must stay within
// a flat per-call budget; any per-tree allocation would blow past it
// 64-fold.
func TestParallelRAPQFanOutAllocs(t *testing.T) {
	a := bind(t, "a/b", "a", "b")
	p := NewParallelRAPQ(a, window.Spec{Size: 1 << 40, Slide: 1 << 40}, 4, WithSink(discardSink{}))
	const roots = 64
	const hub = stream.VertexID(1000)
	for i := 0; i < roots; i++ {
		p.Process(stream.Tuple{TS: 1, Src: stream.VertexID(i), Dst: hub, Label: 0})
	}
	fan := stream.Tuple{TS: 2, Src: hub, Dst: 2000, Label: 1}
	p.Process(fan) // materialize the (2000, final) node in every tree
	ts := int64(2)
	avg := testing.AllocsPerRun(50, func() {
		ts++
		fan.TS = ts
		p.Process(fan)
	})
	const budget = 24 // fan-out scaffolding only: work + per-worker closures
	if avg > budget {
		t.Errorf("fan-out over %d trees allocates %.1f per call, want <= %d (per-tree allocation leak?)", roots, avg, budget)
	}
}
