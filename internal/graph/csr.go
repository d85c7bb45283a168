package graph

import (
	"cmp"
	"slices"

	"streamrpq/internal/stream"
)

// This file holds the packed adjacency representation: a flat table of
// per-vertex edge slabs indexed by dense vertex id, with pointer-free
// version cells. See the package comment for the memory-layout story.

// lookupThreshold is the slab degree above which the slab keeps a
// bigIndex: a (other,label) → index map for O(1) point lookups and its
// cell indices grouped by label for filtered walks. Below it, point
// lookups linearly scan the slab and a filtered walk tests every cell's
// label — for the short adjacency lists that dominate real graphs a
// scan over one or two cache lines beats a map probe, and no index is
// allocated at all.
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

// slab is the contiguous adjacency of one vertex side: a 32-byte header
// of the cell array and, once the slab grows past lookupThreshold, its
// index. Slabs are allocated once per (vertex, side) and never move;
// only the graph's one writer edits them, never while a reader runs
// (see the package comment).
type slab struct {
	edges []packedEdge
	big   *bigIndex // nil at or below lookupThreshold cells; never dropped
}

// bigIndex indexes a slab past lookupThreshold; its arrays are
// pointer-free. lookup maps (other,label) to a cell index. Every label
// the slab has held has a run, a doubly linked list of its cells
// ascending by timestamp (a new or refreshed cell carries the stream
// clock, which Graph.Insert keeps from decreasing, so it joins at the
// tail): heads[id] and tails[id] are the first and last cell of run id
// (-1 when empty), and links, parallel to the slab's cells, chains each
// cell to its run neighbours; a timestamp bound enters a run from its
// tail, past the cells it excludes (see appendSide). The ends of a run
// point at ^id instead of a neighbour, so a cell leaves or moves in O(1)
// without a search. labels ascend, and ids[k] is the run of labels[k]:
// run ids are stable, and only a walk, a new cell or a refresh searches
// labels. A run that empties keeps its id, so labels that come and go on
// a hub allocate nothing at steady state.
type bigIndex struct {
	lookup map[uint64]int32
	links  []link
	heads  []int32
	tails  []int32
	labels []int32
	ids    []int32
}

// link chains a cell into its label's run: the neighbouring cells'
// indices, or ^id past either end of run id.
type link struct{ prev, next int32 }

func packHalf(v stream.VertexID, l stream.LabelID) uint64 {
	return uint64(v)<<32 | uint64(uint32(l))
}

// search returns the position of label in labels at or after from, or
// where it would be inserted and false.
func (b *bigIndex) search(from int, label int32) (int, bool) {
	lo, hi := from, len(b.labels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.labels[m] < label {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.labels) && b.labels[lo] == label
}

// add indexes the cell at idx, whose link exists, at the tail of its
// run.
func (b *bigIndex) add(pe *packedEdge, idx int32) {
	b.lookup[packHalf(stream.VertexID(pe.other), stream.LabelID(pe.label))] = idx
	k, ok := b.search(0, pe.label)
	if !ok {
		b.labels = slices.Insert(b.labels, k, pe.label)
		b.ids = slices.Insert(b.ids, k, int32(len(b.heads)))
		b.heads = append(b.heads, -1)
		b.tails = append(b.tails, -1)
	}
	b.push(b.ids[k], idx)
}

// push links the cell at idx in at the tail of run id.
func (b *bigIndex) push(id, idx int32) {
	prev := b.tails[id]
	if prev < 0 {
		prev, b.heads[id] = ^id, idx
	} else {
		b.links[prev].next = idx
	}
	b.links[idx] = link{prev: prev, next: ^id}
	b.tails[id] = idx
}

// unlink joins the run neighbours of a cell with link l to each other;
// at an end of the run the other neighbour takes the cell's place, or
// -1 when the run empties.
func (b *bigIndex) unlink(l link) {
	if l.prev < 0 {
		b.heads[^l.prev] = max(l.next, -1)
	} else {
		b.links[l.prev].next = l.next
	}
	if l.next < 0 {
		b.tails[^l.next] = max(l.prev, -1)
	} else {
		b.links[l.next].prev = l.prev
	}
}

// refresh moves the cell at idx, whose timestamp was just raised to the
// stream clock, to the tail of its run.
func (b *bigIndex) refresh(idx, label int32) {
	if l := b.links[idx]; l.next >= 0 {
		b.unlink(l)
		k, _ := b.search(0, label)
		b.push(b.ids[k], idx)
	}
}

// remove unindexes the cell at idx and reindexes the slab's last cell
// at idx, where swapRemove moves it: O(1), no search.
func (b *bigIndex) remove(edges []packedEdge, idx, last int32) {
	gone := &edges[idx]
	delete(b.lookup, packHalf(stream.VertexID(gone.other), stream.LabelID(gone.label)))
	b.unlink(b.links[idx])
	if idx != last {
		moved := &edges[last]
		b.lookup[packHalf(stream.VertexID(moved.other), stream.LabelID(moved.label))] = idx
		l := b.links[last]
		b.links[idx] = l
		if l.prev < 0 {
			b.heads[^l.prev] = idx
		} else {
			b.links[l.prev].next = idx
		}
		if l.next < 0 {
			b.tails[^l.next] = idx
		} else {
			b.links[l.next].prev = idx
		}
	}
	b.links = b.links[:last]
}

// find returns the index of the (other,label) cell, or -1.
func (s *slab) find(other stream.VertexID, label stream.LabelID) int32 {
	if s.big != nil {
		if i, ok := s.big.lookup[packHalf(other, label)]; ok {
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

// appendEdge adds a fresh cell and maintains the index, building it
// when the slab grows past lookupThreshold.
func (s *slab) appendEdge(pe packedEdge) {
	s.edges = append(s.edges, pe)
	if b := s.big; b != nil {
		b.links = append(b.links, link{})
		b.add(&pe, int32(len(s.edges)-1))
	} else if len(s.edges) > lookupThreshold {
		// Slab order is not timestamp order (a refresh leaves its cell
		// in place, a removal moves the last one), so the runs start
		// from the cells sorted by ts.
		b = &bigIndex{lookup: make(map[uint64]int32, 2*len(s.edges)), links: make([]link, len(s.edges), cap(s.edges))}
		order := make([]int32, len(s.edges))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(s.edges[i].ts, s.edges[j].ts) })
		for _, i := range order {
			b.add(&s.edges[i], i)
		}
		s.big = b
	}
}

// swapRemove deletes the cell at idx, compacting the slab by moving the
// last cell into the gap (the index follows, see bigIndex.remove). Slab
// order and run order are therefore a function of the mutation history
// and of where the batch boundaries fall, not of hashing — every
// traversal consumer either sorts or is order-insensitive (see the
// canonicity notes in internal/core).
func (s *slab) swapRemove(idx int32) {
	last := int32(len(s.edges) - 1)
	if s.big != nil {
		s.big.remove(s.edges, idx, last)
	}
	if idx != last {
		s.edges[idx] = s.edges[last]
	}
	s.edges = s.edges[:last]
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
