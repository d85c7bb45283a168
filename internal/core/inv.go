package core

import (
	"math/bits"
	"slices"

	"streamrpq/internal/stream"
)

// invRow is the record of one vertex in the inverted index; roots is
// empty exactly in an empty bucket.
type invRow struct {
	v     stream.VertexID
	roots []stream.VertexID
}

// invIndex is the vertex → tree-roots inverted index of §5.2: a flat
// table built like vertexTable, holding a row only while its vertex is
// in some tree, so it is sized by the engine's trees and not by the id
// space of a stream that every engine sharing a graph sees. A row is the
// ascending slice of the roots themselves: binary-searched on update,
// copied out whole on read. A tuple whose source sits in T trees goes on
// to probe T trees, so the 4·T-byte move of an update is never what it
// waits for — and ascending root order is the canonical candidate order
// of both engines. A row that empties parks its array for the next new
// row, which takes the largest parked; an array a row outgrows goes to
// the GC, so what is parked is bounded by rows that existed.
type invIndex struct {
	rows  []invRow
	n     int // occupied buckets
	shift uint8

	// spare[k] parks arrays of capacity in [2^k, 2^(k+1)); bit k of
	// spareK is set while it holds one.
	spare  [32][][]stream.VertexID
	spareK uint32
}

func (ix *invIndex) home(v stream.VertexID) uint32 { return uint32(uint64(v) * hashMul >> ix.shift) }

// bucket returns the bucket v occupies, or the empty one that ends its
// probe sequence. The table must have been grown once.
func (ix *invIndex) bucket(v stream.VertexID) uint32 {
	mask := uint32(len(ix.rows) - 1)
	i := ix.home(v)
	for len(ix.rows[i].roots) != 0 && ix.rows[i].v != v {
		i = (i + 1) & mask
	}
	return i
}

// row returns the roots of the trees containing v, ascending.
func (ix *invIndex) row(v stream.VertexID) []stream.VertexID {
	if ix.n == 0 {
		return nil
	}
	return ix.rows[ix.bucket(v)].roots
}

// add records that the tree rooted at root contains v.
func (ix *invIndex) add(v, root stream.VertexID) {
	if 2*(ix.n+1) > len(ix.rows) {
		ix.grow()
	}
	r := &ix.rows[ix.bucket(v)]
	if len(r.roots) == 0 {
		r.v = v
		ix.n++
		if ix.spareK != 0 { // take the largest parked array
			k := bits.Len32(ix.spareK) - 1
			s := ix.spare[k]
			r.roots, s[len(s)-1] = s[len(s)-1], nil
			if ix.spare[k] = s[:len(s)-1]; len(s) == 1 {
				ix.spareK &^= 1 << k
			}
		}
	}
	if i, found := slices.BinarySearch(r.roots, root); !found {
		r.roots = slices.Insert(r.roots, i, root)
	}
}

// drop removes the (v, root) entry, and v's row with its last root.
func (ix *invIndex) drop(v, root stream.VertexID) {
	if ix.n == 0 {
		return
	}
	i := ix.bucket(v)
	r := &ix.rows[i]
	j, found := slices.BinarySearch(r.roots, root)
	if !found {
		return
	}
	if r.roots = slices.Delete(r.roots, j, j+1); len(r.roots) > 0 {
		return
	}
	k := bits.Len(uint(cap(r.roots))) - 1
	ix.spare[k] = append(ix.spare[k], r.roots)
	ix.spareK |= 1 << k
	mask := uint32(len(ix.rows) - 1)
	for j := (i + 1) & mask; len(ix.rows[j].roots) != 0; j = (j + 1) & mask {
		if fillsHole(i, j, ix.home(ix.rows[j].v), mask) {
			ix.rows[i], i = ix.rows[j], j
		}
	}
	ix.rows[i] = invRow{}
	ix.n--
}

func (ix *invIndex) grow() {
	old := ix.rows
	n := max(minBuckets, 2*len(old))
	ix.rows, ix.shift = make([]invRow, n), tableShift(n)
	for _, r := range old {
		if len(r.roots) != 0 {
			ix.rows[ix.bucket(r.v)] = r
		}
	}
}

// has reports whether the (v, root) entry exists (invariant checks).
func (ix *invIndex) has(v, root stream.VertexID) bool {
	_, found := slices.BinarySearch(ix.row(v), root)
	return found
}

// appendRoots appends the roots of all trees containing v to dst,
// ascending, and returns the extended slice: a snapshot the caller may
// iterate while the index changes under it.
func (ix *invIndex) appendRoots(v stream.VertexID, dst []stream.VertexID) []stream.VertexID {
	return append(dst, ix.row(v)...)
}
