package core

import (
	"fmt"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Handles on the Δ index smaller than a harness run, for working on it
// (go test -bench, not a claim): what one key probe costs, and what one
// tuple costs when nearly every tree is a candidate and nearly every
// probe ends at "no improvement" — the shape of the harness's so-dense
// workload, 1 651 trees over 425 vertices.

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
			ns.alloc(hits[i], 1, rootSlot)
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
// same timestamp: per tree one map lookup, two key probes, no change.
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
	if got := len(e.rootsOf(hub)); got != trees+1 {
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
