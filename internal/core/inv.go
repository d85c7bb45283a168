package core

import (
	"math/bits"
	"slices"

	"streamrpq/internal/stream"
)

// invEnt is one entry of the inverted index: the tree with id tree
// (its index in delta.trees) holds vertex v in the given state. A RAPQ
// entry names one node and its slot; an RSPQ entry names one key, whose
// instances the tree lists (slot noSlot).
type invEnt struct {
	tree  int32
	slot  int32
	state int32
}

// noSlot is the slot of an RSPQ entry, which stands for every instance
// of its key.
const noSlot = int32(-1)

// entKey is the search key of an entry: entries are ordered by (tree,
// state), then by slot.
func entKey(tree, state int32) uint64 {
	return uint64(uint32(tree))<<32 | uint64(uint32(state))
}

func (en invEnt) key() uint64 { return entKey(en.tree, en.state) }

// before reports whether en sorts before (k, slot).
func (en invEnt) before(k uint64, slot int32) bool {
	ek := en.key()
	return ek < k || ek == k && en.slot < slot
}

// search returns the index of the first entry of ents that does not sort
// before (k, slot). Written out rather than slices.BinarySearchFunc: it
// runs once per candidate tree on the routing path.
func search(ents []invEnt, k uint64, slot int32) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ents[m].before(k, slot) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// invRow is the record of one vertex in the inverted index; ents is
// empty exactly in an empty bucket. tree names the tree rooted at v, 1
// + its id (0: none); it sits in what would be padding, so a row stays
// 32 bytes. A tree's root is in its own tree, so its row lives as long
// as the tree does.
type invRow struct {
	v    stream.VertexID
	tree int32
	ents []invEnt
}

// invIndex is the vertex → tree-nodes inverted index of §5.2: a flat
// table built like treeStore's key index, holding a row only while its
// vertex is in some tree, so it is sized by the engine's trees and not by
// the id space of a stream that every engine sharing a graph sees. A row
// lists the vertex's nodes (RAPQ) or keys (RSPQ) in every tree,
// ascending by (tree id, state, slot): routing reads a candidate's tree
// and node straight from the entry, the row of a tuple's target tells
// which offers would improve nothing, and a pair's liveness reads the
// final-state entries of one tree. Tree ids are not canonical (they are
// reused, and a restored engine numbers its trees by root): RAPQ visits
// a tuple's candidates in id order, which changes only the order of one
// tuple's emissions, and RSPQ, whose trees share the Extend budget,
// sorts the ids it gathers by root. A row that empties parks its array
// for the next new row, which takes the largest parked; an array a row
// outgrows goes to the GC, so what is parked is bounded by rows that
// existed.
type invIndex struct {
	rows  []invRow
	n     int // occupied buckets
	shift uint8

	// spare[k] parks arrays of capacity in [2^k, 2^(k+1)); bit k of
	// spareK is set while it holds one.
	spare  [32][][]invEnt
	spareK uint32
}

func (ix *invIndex) home(v stream.VertexID) uint32 { return uint32(uint64(v) * hashMul >> ix.shift) }

// bucket returns the bucket v occupies, or the empty one that ends its
// probe sequence. The table must have been grown once.
func (ix *invIndex) bucket(v stream.VertexID) uint32 {
	mask := uint32(len(ix.rows) - 1)
	i := ix.home(v)
	for len(ix.rows[i].ents) != 0 && ix.rows[i].v != v {
		i = (i + 1) & mask
	}
	return i
}

// row returns v's entries, ascending. The slice is good until the next
// add or drop.
func (ix *invIndex) row(v stream.VertexID) []invEnt {
	if ix.n == 0 {
		return nil
	}
	return ix.rows[ix.bucket(v)].ents
}

// of returns v's entries in the tree with id tree, ascending by state;
// good until the next add or drop.
func (ix *invIndex) of(v stream.VertexID, tree int32) []invEnt {
	row := ix.row(v)
	i := search(row, entKey(tree, 0), noSlot)
	j := i
	for j < len(row) && row[j].tree == tree {
		j++
	}
	return row[i:j]
}

// rootTree returns the id of the tree rooted at v, or -1.
func (ix *invIndex) rootTree(v stream.VertexID) int32 {
	if ix.n == 0 {
		return -1
	}
	return ix.rows[ix.bucket(v)].tree - 1
}

// add records that the tree with id tree holds v in state, at slot, and
// returns v's row, good until the next add or drop.
func (ix *invIndex) add(v stream.VertexID, tree, state, slot int32) *invRow {
	if 2*(ix.n+1) > len(ix.rows) {
		ix.grow()
	}
	r := &ix.rows[ix.bucket(v)]
	if len(r.ents) == 0 {
		r.v = v
		ix.n++
		if ix.spareK != 0 { // take the largest parked array
			k := bits.Len32(ix.spareK) - 1
			s := ix.spare[k]
			r.ents, s[len(s)-1] = s[len(s)-1], nil
			if ix.spare[k] = s[:len(s)-1]; len(s) == 1 {
				ix.spareK &^= 1 << k
			}
		}
	}
	en := invEnt{tree: tree, slot: slot, state: state}
	if i := search(r.ents, en.key(), slot); i == len(r.ents) || r.ents[i] != en {
		r.ents = slices.Insert(r.ents, i, en)
	}
	return r
}

// drop removes the entry add records, and v's row with its last entry.
// It returns v's row if the row remains after dropping the entry (good
// until the next add or drop), else nil. Dropping an absent entry
// changes nothing.
func (ix *invIndex) drop(v stream.VertexID, tree, state, slot int32) *invRow {
	if ix.n == 0 {
		return nil
	}
	i := ix.bucket(v)
	r := &ix.rows[i]
	en := invEnt{tree: tree, slot: slot, state: state}
	j := search(r.ents, en.key(), slot)
	if j == len(r.ents) || r.ents[j] != en {
		return nil
	}
	if r.ents = slices.Delete(r.ents, j, j+1); len(r.ents) > 0 {
		return r
	}
	k := bits.Len(uint(cap(r.ents))) - 1
	ix.spare[k] = append(ix.spare[k], r.ents)
	ix.spareK |= 1 << k
	mask := uint32(len(ix.rows) - 1)
	for j := (i + 1) & mask; len(ix.rows[j].ents) != 0; j = (j + 1) & mask {
		if fillsHole(i, j, ix.home(ix.rows[j].v), mask) {
			ix.rows[i], i = ix.rows[j], j
		}
	}
	ix.rows[i] = invRow{}
	ix.n--
	return nil
}

func (ix *invIndex) grow() {
	old := ix.rows
	n := max(minBuckets, 2*len(old))
	ix.rows, ix.shift = make([]invRow, n), tableShift(n)
	for _, r := range old {
		if len(r.ents) != 0 {
			ix.rows[ix.bucket(r.v)] = r
		}
	}
}

// appendTrees appends the ids of all trees containing v to dst,
// ascending and each once, and returns the extended slice: a snapshot
// the caller may iterate while the index changes under it.
func (ix *invIndex) appendTrees(v stream.VertexID, dst []int32) []int32 {
	for i, en := range ix.row(v) {
		if i == 0 || en.tree != dst[len(dst)-1] {
			dst = append(dst, en.tree)
		}
	}
	return dst
}
