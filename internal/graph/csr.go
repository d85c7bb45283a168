package graph

import (
	"math"

	"streamrpq/internal/stream"
)

// This file holds the packed adjacency representation: a flat table of
// per-vertex edge slabs indexed by dense vertex id, with pointer-free
// version cells. See the package comment for the memory-layout story.

// liveDelta marks a packed version that has not been superseded or
// removed (the delta-space analogue of liveEpoch).
const liveDelta = uint32(math.MaxUint32)

// lookupThreshold is the slab degree above which a (vertex,label) →
// index map is maintained for O(1) point lookups. Below it, point
// lookups linearly scan the slab — for the short adjacency lists that
// dominate real graphs a scan over one or two cache lines beats a map
// probe, and no map is allocated at all.
const lookupThreshold = 24

// packedEdge is one (other, label) adjacency cell with its newest
// version inlined: 32 bytes, pointer-free. Epochs are stored as uint32
// deltas against the owning slab's base epoch (liveDelta = still
// live); superseded versions that leased readers may still observe
// live in the slab's overflow arena, chained from ovf (-1 = none).
type packedEdge struct {
	ts      int64
	other   uint32 // the other endpoint (dst in out-slabs, src in in-slabs)
	label   int32
	added   uint32 // epoch delta vs slab base
	removed uint32 // epoch delta vs slab base; liveDelta while current
	ovf     int32  // head of the overflow version chain, -1 if none
}

// ovfVersion is a superseded version retained for leased readers, in
// the slab's flat overflow arena. Overflow is the rare path (only
// taken while a reader actually holds an older epoch), so it keeps
// full epochs rather than deltas; next chains versions of the same
// cell, and doubles as the free-list link.
type ovfVersion struct {
	ts      int64
	added   Epoch
	removed Epoch
	next    int32
}

// slab is the contiguous adjacency of one vertex side: a growable
// array of packed edge cells plus the overflow arena their version
// chains live in. Slabs are allocated once per (vertex, side) and
// never move; the stripe lock of the owning vertex guards all access.
type slab struct {
	base    Epoch // epoch that packed deltas are relative to
	edges   []packedEdge
	ovf     []ovfVersion
	ovfFree int32 // free-list head in ovf, -1 if none

	// lookup maps (other,label) to an edge index once the slab grows
	// past lookupThreshold; nil below it (linear scan).
	lookup map[uint64]int32
}

func newSlab(base Epoch) *slab {
	return &slab{base: base, ovfFree: -1}
}

func packHalf(v stream.VertexID, l stream.LabelID) uint64 {
	return uint64(v)<<32 | uint64(uint32(l))
}

// absAdded returns the full added epoch of the inline version.
func (s *slab) absAdded(pe *packedEdge) Epoch { return s.base + Epoch(pe.added) }

// absRemoved returns the full removed epoch of the inline version.
func (s *slab) absRemoved(pe *packedEdge) Epoch {
	if pe.removed == liveDelta {
		return liveEpoch
	}
	return s.base + Epoch(pe.removed)
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

// swapRemove deletes the cell at idx (its overflow chain must already
// be freed), compacting the slab by moving the last cell into the gap.
// Iteration order is therefore a function of the mutation history, not
// of hashing — every traversal consumer either sorts or is
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

// pushOvf stores a superseded version in the overflow arena at the
// head of the cell's chain, reusing a free slot when one exists.
func (s *slab) pushOvf(pe *packedEdge, v ovfVersion) {
	v.next = pe.ovf
	if s.ovfFree >= 0 {
		slot := s.ovfFree
		s.ovfFree = s.ovf[slot].next
		s.ovf[slot] = v
		pe.ovf = slot
		return
	}
	s.ovf = append(s.ovf, v)
	pe.ovf = int32(len(s.ovf) - 1)
}

// pruneOvf drops every chained version removed at or before bound and
// returns how many remain.
func (s *slab) pruneOvf(pe *packedEdge, bound Epoch) int {
	kept := 0
	prev := int32(-1)
	cur := pe.ovf
	for cur >= 0 {
		next := s.ovf[cur].next
		if s.ovf[cur].removed <= bound {
			if prev < 0 {
				pe.ovf = next
			} else {
				s.ovf[prev].next = next
			}
			s.ovf[cur].next = s.ovfFree
			s.ovfFree = cur
		} else {
			kept++
			prev = cur
		}
		cur = next
	}
	return kept
}

// freeChain returns a whole overflow chain to the free list.
func (s *slab) freeChain(pe *packedEdge) {
	cur := pe.ovf
	for cur >= 0 {
		next := s.ovf[cur].next
		s.ovf[cur].next = s.ovfFree
		s.ovfFree = cur
		cur = next
	}
	pe.ovf = -1
}

// versionAt returns the timestamp of the cell's version visible at
// epoch e. Version intervals are disjoint, so chain order is
// irrelevant for correctness.
func (s *slab) versionAt(pe *packedEdge, e Epoch) (int64, bool) {
	if s.absAdded(pe) <= e && e < s.absRemoved(pe) {
		return pe.ts, true
	}
	for cur := pe.ovf; cur >= 0; cur = s.ovf[cur].next {
		ov := &s.ovf[cur]
		if ov.added <= e && e < ov.removed {
			return ov.ts, true
		}
	}
	return 0, false
}

// deltaFor converts an absolute epoch to the slab's delta space,
// rebasing the slab when the writer epoch has outrun the uint32 range.
// minR bounds how far back any reader can observe, so rebasing to it
// never changes what a live lease sees.
func (s *slab) deltaFor(epoch, minR Epoch) uint32 {
	d := epoch - s.base
	if d < Epoch(liveDelta) {
		return uint32(d)
	}
	s.rebase(minR)
	d = epoch - s.base
	if d >= Epoch(liveDelta) {
		// Only reachable if a single lease was held across 2^32 epoch
		// advances; the coordinator releases leases every sub-batch.
		panic("graph: epoch delta overflow: reader lease held across 2^32 epochs")
	}
	return uint32(d)
}

// rebase rewrites every packed delta against a new base epoch of minR.
// Versions dead at or before minR are unobservable by any current or
// future reader and are dropped on the way; added epochs below the new
// base clamp to it (every remaining reader's epoch is >= minR, so
// visibility is unchanged).
func (s *slab) rebase(minR Epoch) {
	newBase := minR
	for i := 0; i < len(s.edges); {
		pe := &s.edges[i]
		if s.absRemoved(pe) <= newBase {
			s.freeChain(pe)
			s.swapRemove(int32(i))
			continue // a new cell now occupies index i
		}
		added := s.absAdded(pe)
		if added < newBase {
			added = newBase
		}
		pe.added = uint32(added - newBase)
		if pe.removed != liveDelta {
			pe.removed = uint32(s.absRemoved(pe) - newBase)
		}
		s.pruneOvf(pe, newBase)
		i++
	}
	s.base = newBase
}

// hasLive reports whether any cell's newest version is current.
func (s *slab) hasLive() bool {
	for i := range s.edges {
		if s.edges[i].removed == liveDelta {
			return true
		}
	}
	return false
}

// table is the top-level dense-id adjacency: slab pointers per vertex
// and side. The writer grows it copy-on-write and publishes via an
// atomic pointer; slabs themselves never move, so a reader holding a
// stale table sees exactly the slabs that existed when it loaded —
// anything missing holds only versions newer than the reader's epoch.
type table struct {
	out []*slab
	in  []*slab
}

// editSide applies one half of an edge mutation to vertex v's out
// slab (out) or in slab, which must be within the table; the caller
// holds stripe(v). It reports whether (other,label) had a live version
// before the edit. An insert creates the slab on first use and upserts.
// A delete ends the live version, if any: a tombstone is kept only
// while some reader may still observe the removed version (minR <
// epoch); when none is needed, every older version is unobservable too
// (their removal epochs are even earlier), so the whole cell goes.
func (t *table) editSide(out bool, v, other stream.VertexID, label stream.LabelID, ts int64, del bool, epoch, minR Epoch) bool {
	side := t.in
	if out {
		side = t.out
	}
	s := side[v]
	if !del {
		if s == nil {
			s = newSlab(epoch)
			side[v] = s
		}
		return s.upsert(other, label, ts, epoch, minR)
	}
	if s == nil {
		return false
	}
	keep := minR < epoch
	var rd uint32
	if keep {
		rd = s.deltaFor(epoch, minR) // may rebase: resolve before find
	}
	idx := s.find(other, label)
	if idx < 0 || s.edges[idx].removed != liveDelta {
		return false
	}
	pe := &s.edges[idx]
	if keep {
		pe.removed = rd
	} else {
		s.freeChain(pe)
		s.swapRemove(idx)
	}
	return true
}

// grown returns a copy of t with capacity for vertex id v.
func (t *table) grown(v stream.VertexID) *table {
	n := len(t.out)
	if n == 0 {
		n = 64
	}
	for n <= int(v) {
		n *= 2
	}
	nt := &table{out: make([]*slab, n), in: make([]*slab, n)}
	copy(nt.out, t.out)
	copy(nt.in, t.in)
	return nt
}
