package graph

import (
	"streamrpq/internal/stream"
)

// This file holds the packed adjacency representation: a flat table of
// per-vertex edge slabs indexed by dense vertex id, with pointer-free
// version cells. See the package comment for the memory-layout story.

// lookupThreshold is the slab degree above which a (vertex,label) →
// index map is maintained for O(1) point lookups. Below it, point
// lookups linearly scan the slab — for the short adjacency lists that
// dominate real graphs a scan over one or two cache lines beats a map
// probe, and no map is allocated at all.
const lookupThreshold = 24

// packedEdge is one (other, label) adjacency cell with its newest
// version inlined: 32 bytes, pointer-free. Outside a batch every cell is
// settled: added is 0, removed is liveEpoch and prev is -1. Inside one,
// the versions the cell superseded that an earlier step may still read
// sit in the graph's arena, chained from prev.
type packedEdge struct {
	ts      int64
	other   uint32 // the other endpoint (dst in out-slabs, src in in-slabs)
	label   int32
	added   Epoch
	removed Epoch // liveEpoch while current
	prev    int32 // head of the superseded-version chain in the arena, -1 if none
}

// version is a superseded version kept for the open batch, in the
// graph's arena; next chains the older versions of the same cell.
type version struct {
	ts      int64
	added   Epoch
	removed Epoch
	next    int32
}

// slab is the contiguous adjacency of one vertex side. Slabs are
// allocated once per (vertex, side) and never move; only the graph's
// one writer edits them, never while a reader runs (see the package
// comment).
type slab struct {
	edges []packedEdge

	// lookup maps (other,label) to an edge index once the slab grows
	// past lookupThreshold; nil below it (linear scan).
	lookup map[uint64]int32
}

func packHalf(v stream.VertexID, l stream.LabelID) uint64 {
	return uint64(v)<<32 | uint64(uint32(l))
}

// find returns the index of the (other,label) cell, or -1.
func (s *slab) find(other stream.VertexID, label stream.LabelID) int32 {
	if s.lookup != nil {
		if i, ok := s.lookup[packHalf(other, label)]; ok {
			return i
		}
		return -1
	}
	o, l := uint32(other), int32(label)
	for i := range s.edges {
		if s.edges[i].other == o && s.edges[i].label == l {
			return int32(i)
		}
	}
	return -1
}

// appendEdge adds a fresh cell and maintains the lookup index.
func (s *slab) appendEdge(pe packedEdge) {
	idx := int32(len(s.edges))
	s.edges = append(s.edges, pe)
	if s.lookup != nil {
		s.lookup[packHalf(stream.VertexID(pe.other), stream.LabelID(pe.label))] = idx
	} else if len(s.edges) > lookupThreshold {
		s.lookup = make(map[uint64]int32, 2*len(s.edges))
		for i := range s.edges {
			e := &s.edges[i]
			s.lookup[packHalf(stream.VertexID(e.other), stream.LabelID(e.label))] = int32(i)
		}
	}
}

// swapRemove deletes the cell at idx, compacting the slab by moving the
// last cell into the gap. Iteration order is therefore a function of the
// mutation history and of where the batch boundaries fall, not of
// hashing — every traversal consumer either sorts or is
// order-insensitive (see the canonicity notes in internal/core).
func (s *slab) swapRemove(idx int32) {
	last := int32(len(s.edges) - 1)
	gone := s.edges[idx]
	if idx != last {
		s.edges[idx] = s.edges[last]
		if s.lookup != nil {
			moved := &s.edges[idx]
			s.lookup[packHalf(stream.VertexID(moved.other), stream.LabelID(moved.label))] = idx
		}
	}
	s.edges = s.edges[:last]
	if s.lookup != nil {
		delete(s.lookup, packHalf(stream.VertexID(gone.other), stream.LabelID(gone.label)))
	}
}

// hasLive reports whether any cell's newest version is current.
func (s *slab) hasLive() bool {
	for i := range s.edges {
		if s.edges[i].removed == liveEpoch {
			return true
		}
	}
	return false
}

// table is the top-level dense-id adjacency: slab pointers per vertex
// and side. The writer grows it in place; slabs themselves never move.
type table struct {
	out []*slab
	in  []*slab
}

// slab returns vertex v's out slab (out) or in slab, nil if it has none.
func (t *table) slab(out bool, v stream.VertexID) *slab {
	if int(v) >= len(t.out) {
		return nil
	}
	if out {
		return t.out[v]
	}
	return t.in[v]
}

// grow extends t in place to cover vertex id v.
func (t *table) grow(v stream.VertexID) {
	if int(v) < len(t.out) {
		return
	}
	n := max(len(t.out), 64)
	for n <= int(v) {
		n *= 2
	}
	t.out = append(t.out, make([]*slab, n-len(t.out))...)
	t.in = append(t.in, make([]*slab, n-len(t.in))...)
}
