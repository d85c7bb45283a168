package core

import "streamrpq/internal/stream"

// vrec is the record of one vertex in a vertexTable.
type vrec struct {
	v       stream.VertexID
	nodes   int32 // > 0 in every occupied bucket: zero marks an empty one
	support int32 // how many of the counts are witnesses
}

// vertexTable is a per-vertex record table of the same construction as
// the key index of treeStore — power-of-two buckets at load ≤ ½,
// multiplicative hash, linear probing, backward-shift deletion — with
// the records stored in the buckets themselves. A delete or RSPQ expiry
// pass keeps its liveness record in one (scratch.pre): a vertex counted
// once, as a witness iff its pair was live when the pass started.
type vertexTable struct {
	recs  []vrec
	n     int // occupied buckets
	shift uint8
}

func (t *vertexTable) home(v stream.VertexID) uint32 { return uint32(uint64(v) * hashMul >> t.shift) }

// bucket returns the bucket v occupies, or the empty one that ends its
// probe sequence. The table must have been grown once.
func (t *vertexTable) bucket(v stream.VertexID) uint32 {
	mask := uint32(len(t.recs) - 1)
	i := t.home(v)
	for t.recs[i].nodes != 0 && t.recs[i].v != v {
		i = (i + 1) & mask
	}
	return i
}

// find returns v's record, or nil. The pointer is good until the next
// inc or dec.
func (t *vertexTable) find(v stream.VertexID) *vrec {
	if t.n == 0 {
		return nil
	}
	if r := &t.recs[t.bucket(v)]; r.nodes != 0 {
		return r
	}
	return nil
}

// inc counts one more node of v, a witness if witness is set, and
// reports whether it is v's first.
func (t *vertexTable) inc(v stream.VertexID, witness bool) bool {
	if 2*(t.n+1) > len(t.recs) {
		t.grow()
	}
	r := &t.recs[t.bucket(v)]
	if r.nodes == 0 {
		r.v = v
		t.n++
	}
	r.nodes++
	if witness {
		r.support++
	}
	return r.nodes == 1
}

// dec takes one node of v out of the count, a witness if witness is
// set, and reports whether it was v's last. The vertex must be present.
func (t *vertexTable) dec(v stream.VertexID, witness bool) bool {
	i := t.bucket(v)
	r := &t.recs[i]
	if witness {
		r.support--
	}
	if r.nodes--; r.nodes > 0 {
		return false
	}
	mask := uint32(len(t.recs) - 1)
	for j := (i + 1) & mask; t.recs[j].nodes != 0; j = (j + 1) & mask {
		if fillsHole(i, j, t.home(t.recs[j].v), mask) {
			t.recs[i], i = t.recs[j], j
		}
	}
	t.recs[i] = vrec{}
	t.n--
	return true
}

func (t *vertexTable) grow() {
	old := t.recs
	n := max(minBuckets, 2*len(old))
	t.recs, t.shift = make([]vrec, n), tableShift(n)
	for _, r := range old {
		if r.nodes != 0 {
			t.recs[t.bucket(r.v)] = r
		}
	}
}
