package core

import (
	"slices"

	"streamrpq/internal/stream"
)

// invIndex is the vertex → tree-roots inverted index of §5.2. Vertex
// ids are dense (stream.Dict assigns them in first-seen order), so the
// vertex's row is a direct offset into a flat slice rather than a hash
// probe, and a row is the ascending slice of the roots themselves:
// binary-searched on update, copied out whole on read. A tuple whose
// source sits in T trees goes on to probe T trees, so the 4·T-byte move
// of an update is never what it waits for — and ascending root order is
// the canonical candidate order of both engines.
type invIndex struct {
	rows [][]stream.VertexID // indexed by vertex id, grown on demand
}

// row returns the vertex's row, nil if the index never covered it.
func (ix *invIndex) row(v stream.VertexID) []stream.VertexID {
	if int(v) >= len(ix.rows) {
		return nil
	}
	return ix.rows[v]
}

// add records that the tree rooted at root contains v.
func (ix *invIndex) add(v, root stream.VertexID) {
	if r := int(v); r >= len(ix.rows) {
		n := max(len(ix.rows), 16)
		for n <= r {
			n *= 2
		}
		rows := make([][]stream.VertexID, n)
		copy(rows, ix.rows)
		ix.rows = rows
	}
	if i, found := slices.BinarySearch(ix.rows[v], root); !found {
		ix.rows[v] = slices.Insert(ix.rows[v], i, root)
	}
}

// drop removes the (v, root) entry.
func (ix *invIndex) drop(v, root stream.VertexID) {
	if i, found := slices.BinarySearch(ix.row(v), root); found {
		ix.rows[v] = slices.Delete(ix.rows[v], i, i+1)
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
