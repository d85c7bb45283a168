package core

import (
	"slices"

	"streamrpq/internal/stream"
)

// invIndex is the vertex → tree-roots inverted index of §5.2. Vertex
// ids are dense (stream.Dict assigns them in first-seen order), so the
// vertex's row is a direct offset into a flat slice rather than a hash
// probe. Per-row root sets are a small linear-scanned slice
// (trees-per-vertex is tiny for real workloads), promoted to a map past
// invPromote roots.
//
// The index belongs to one RAPQ engine and is only ever touched by the
// goroutine driving that engine: a tree fan-out (ParallelRAPQ) reads
// its candidate roots before the workers start and buffers their
// updates until they have stopped.
type invIndex struct {
	rows []invRow // indexed by vertex id, grown on demand
}

// invPromote is the root count above which a row's linear-scanned
// slice is promoted to a map.
const invPromote = 16

// invRow is the root set of one vertex: a small slice scanned
// linearly, or a map once it outgrows invPromote.
type invRow struct {
	small []stream.VertexID
	big   map[stream.VertexID]struct{}
}

// invOp is one index update, as a value a fan-out can buffer.
type invOp struct {
	v, root stream.VertexID
	drop    bool
}

func (ix *invIndex) apply(op invOp) {
	if op.drop {
		ix.drop(op.v, op.root)
	} else {
		ix.add(op.v, op.root)
	}
}

// row returns the vertex's row, or nil if the index never covered it.
func (ix *invIndex) row(v stream.VertexID) *invRow {
	if int(v) >= len(ix.rows) {
		return nil
	}
	return &ix.rows[v]
}

// add records that the tree rooted at root contains v.
func (ix *invIndex) add(v, root stream.VertexID) {
	if r := int(v); r >= len(ix.rows) {
		n := max(len(ix.rows), 16)
		for n <= r {
			n *= 2
		}
		rows := make([]invRow, n)
		copy(rows, ix.rows)
		ix.rows = rows
	}
	row := &ix.rows[v]
	if row.big != nil {
		row.big[root] = struct{}{}
		return
	}
	if slices.Contains(row.small, root) {
		return
	}
	if len(row.small) >= invPromote {
		row.big = make(map[stream.VertexID]struct{}, 2*len(row.small))
		for _, r := range row.small {
			row.big[r] = struct{}{}
		}
		row.small = nil
		row.big[root] = struct{}{}
		return
	}
	row.small = append(row.small, root)
}

// drop removes the (v, root) entry.
func (ix *invIndex) drop(v, root stream.VertexID) {
	row := ix.row(v)
	if row == nil {
		return
	}
	if row.big != nil {
		delete(row.big, root)
		return
	}
	for i, x := range row.small {
		if x == root {
			// Order-preserving removal: appendRoots snapshots feed the
			// sequential engines' fan-out order, which must not depend
			// on removal history more than the insertion order already
			// does.
			row.small = append(row.small[:i], row.small[i+1:]...)
			return
		}
	}
}

// has reports whether the (v, root) entry exists (invariant checks).
func (ix *invIndex) has(v, root stream.VertexID) bool {
	row := ix.row(v)
	if row == nil {
		return false
	}
	if row.big != nil {
		_, ok := row.big[root]
		return ok
	}
	return slices.Contains(row.small, root)
}

// forEach calls f for every (v, root) entry (invariant checks only; f
// must not mutate the index).
func (ix *invIndex) forEach(f func(v, root stream.VertexID) bool) {
	for v := range ix.rows {
		row := &ix.rows[v]
		for _, root := range row.small {
			if !f(stream.VertexID(v), root) {
				return
			}
		}
		for root := range row.big {
			if !f(stream.VertexID(v), root) {
				return
			}
		}
	}
}

// appendRoots appends the roots of all trees containing v to dst and
// returns the extended slice: a snapshot the caller may iterate while
// the index changes under it.
func (ix *invIndex) appendRoots(v stream.VertexID, dst []stream.VertexID) []stream.VertexID {
	if row := ix.row(v); row != nil {
		dst = append(dst, row.small...)
		for root := range row.big {
			dst = append(dst, root)
		}
	}
	return dst
}
