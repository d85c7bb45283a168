package core

import (
	"fmt"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Handles on the Δ index smaller than a harness run, for working on it
// (go test -bench, not a claim): what one key probe costs, what one
// tuple costs when nearly every tree is a candidate and nearly every
// offer ends at "no improvement" — the shape of the harness's so-dense
// workload, 1 651 trees over 425 vertices — what one window pass
// costs, and what one deletion's repair costs.

var benchSlot int32

// BenchmarkTreeLookup probes one tree's key index, hit and miss, at 16,
// 256 and 4 096 nodes.
func BenchmarkTreeLookup(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		var ns treeStore
		hits, misses := make([]nodeKey, n), make([]nodeKey, n)
		for i := range n {
			hits[i] = mkNodeKey(stream.VertexID(i/2), int32(i%2))
			misses[i] = mkNodeKey(stream.VertexID(n+i/2), int32(i%2))
			ns.alloc(hits[i], 1, rootSlot, nil)
		}
		for _, c := range []struct {
			name string
			keys []nodeKey
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				i := 0
				for b.Loop() {
					benchSlot = ns.lookup(c.keys[i])
					if i++; i == n {
						i = 0
					}
				}
			})
		}
	}
}

// BenchmarkInsertEdgeRouting offers one tuple to 150 trees of 250-odd
// nodes that all hold its source and already reach its target at the
// same timestamp: per tree one tree-table index and two node reads,
// found through the index entries of the source and the target, no key
// probe and no change.
func BenchmarkInsertEdgeRouting(b *testing.B) {
	const trees, leaves = 150, 250
	const hub, target, leaf0 = stream.VertexID(1000), stream.VertexID(1001), stream.VertexID(2000)
	e := NewRAPQ(bind(b, "a+", "a"), window.Spec{Size: 1 << 40, Slide: 1 << 40})
	tu := stream.Tuple{TS: 1, Src: hub, Dst: target}
	e.Process(tu)
	for i := range leaves {
		e.Process(stream.Tuple{TS: 1, Src: target, Dst: leaf0 + stream.VertexID(i)})
	}
	for i := range trees {
		e.Process(stream.Tuple{TS: 1, Src: stream.VertexID(i), Dst: hub})
	}
	if got := len(e.treesOf(hub)); got != trees+1 {
		b.Fatalf("hub sits in %d trees, want %d", got, trees+1)
	}
	calls := e.Stats().InsertCalls
	for b.Loop() {
		e.ApplyInsert(tu)
	}
	if got := e.Stats().InsertCalls; got != calls {
		b.Fatalf("routing a known edge made %d insert calls", got-calls)
	}
}

// BenchmarkWindowExpiry times one slide-boundary pass over a warm window
// of 300 trees that share their vertices: each tick links every root to
// that tick's hub, which fans out to 8 leaves, so each tree holds 9
// nodes per tick over 32 ticks. Between passes, untimed, the next tick
// enters and the oldest leaves the graph; the pass then scans every
// slot and removes the oldest tick's 9 nodes from each tree, and drops
// the hub's own tree.
func BenchmarkWindowExpiry(b *testing.B) {
	const roots, fanout, span = 300, 8, 32
	const hub0, leaf0 = stream.VertexID(1 << 20), stream.VertexID(1 << 24)
	e := NewRAPQ(bind(b, "a+", "a"), window.Spec{Size: 1 << 40, Slide: 1 << 40})
	g := e.Graph()
	insert := func(tu stream.Tuple) {
		g.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		e.ApplyInsert(tu)
	}
	tick := int64(0)
	advance := func() {
		tick++
		hub := hub0 + stream.VertexID(tick)
		for j := range fanout {
			insert(stream.Tuple{TS: tick, Src: hub, Dst: leaf0 + stream.VertexID(tick*fanout+int64(j))})
		}
		for i := range roots {
			insert(stream.Tuple{TS: tick, Src: stream.VertexID(i), Dst: hub})
		}
		g.Expire(tick-span, nil)
	}
	for range span {
		advance()
	}
	want := roots*(1+span*(1+fanout)) + span*(1+fanout)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		advance()
		b.StartTimer()
		e.ApplyExpiry(tick - span)
	}
	if got := e.Stats().Nodes; got != want {
		b.Fatalf("window holds %d nodes after the passes, want %d", got, want)
	}
}

// BenchmarkDeleteReconnect times a delete and re-insert pair on the
// fixture of TestRAPQDeleteSteadyStateAllocs: the delete cuts h and its
// 32-node chain in two trees, repairs them in place in the tree of r
// (one settle each) and drops them from the tree of m1; the re-insert
// moves h back and grows the chain again.
func BenchmarkDeleteReconnect(b *testing.B) {
	e, del, ins := newDeleteChain(b)
	nodes := e.Stats().Nodes
	b.ReportAllocs()
	for b.Loop() {
		calls := e.stats.InsertCalls
		del()
		if got := e.stats.InsertCalls - calls; got != dcLen+1 {
			b.Fatalf("the delete made %d insert calls, want %d", got, dcLen+1)
		}
		ins()
	}
	if got := e.Stats().Nodes; got != nodes {
		b.Fatalf("the fixture holds %d nodes after the pairs, want %d", got, nodes)
	}
}

// refreshCalls is the insert calls one BenchmarkInsertRefresh tick
// makes: the hub edge refreshes its core vertex in 64 of the 65 trees
// holding the hub (not in the tree of the root whose edge is next, whose
// hub is as old as the hub edge was), and the root edge refreshes the hub
// and its 64 core children in the root's tree.
const refreshCalls = 64 + 1 + 64

// BenchmarkInsertRefresh times one tick on a warm dense cyclic graph
// under a+: 64 core vertices joined both ways by edges that never
// change, a hub with an edge to each core vertex, and 64 roots with an
// edge to the hub. Tick t refreshes the hub's edge to core vertex t mod
// 64 and then root t mod 64's edge to the hub, so in that root's tree
// the hub and its whole subtree refresh. Every refreshed core node's
// out-edges sit at or below its old timestamp, so none of them can
// improve a child.
func BenchmarkInsertRefresh(b *testing.B) {
	const core = 64
	const hub, root0 = stream.VertexID(core), stream.VertexID(core + 1)
	e := NewRAPQ(bind(b, "a+", "a"), window.Spec{Size: 1 << 40, Slide: 1 << 40})
	for i := range stream.VertexID(core) {
		for j := range stream.VertexID(core) {
			if i != j {
				e.Process(stream.Tuple{TS: 0, Src: i, Dst: j})
			}
		}
	}
	tick := int64(0)
	op := func() {
		tick++
		i := stream.VertexID(tick % core)
		e.Process(stream.Tuple{TS: tick, Src: hub, Dst: i})
		e.Process(stream.Tuple{TS: tick, Src: root0 + i, Dst: hub})
	}
	for range 2 * core {
		op()
	}
	nodes := e.Stats().Nodes
	b.ReportAllocs()
	for b.Loop() {
		calls := e.stats.InsertCalls
		op()
		if got := e.stats.InsertCalls - calls; got != refreshCalls {
			b.Fatalf("tick %d made %d insert calls, want %d", tick, got, refreshCalls)
		}
	}
	if got := e.Stats().Nodes; got != nodes {
		b.Fatalf("the fixture holds %d nodes after the ticks, want %d", got, nodes)
	}
}
