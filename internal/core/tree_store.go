package core

import "math/bits"

// slotStore holds the nodes of one spanning tree in struct-of-arrays
// form: parallel slot-indexed arrays for the hot fields (key, timestamp,
// parent) plus intrusive sibling lists for the child sets, instead of
// per-node heap objects and per-node child maps. Both engines keep their
// trees in it; they differ in the key index laid over the slots (see
// tree).
//
// Slot lifecycle: alloc returns a free slot (reusing released ones),
// release marks a slot free (parent == freeSlot) and recycles it
// later. Slots are stable while a node lives, and nothing is released
// during an insert cascade, so a cascade can carry parent slots instead
// of keys. An expiry pass releases slots strictly before its
// reconnection allocates, and what it releases always forms whole
// subtrees, so no live node ever points at a released slot. The root is
// its tree's first node: it sits in rootSlot for the tree's whole life.
type slotStore struct {
	keys []nodeKey
	ts   []int64
	// parent is the parent's slot; the root is its own parent
	// (self-sentinel), freeSlot marks a released slot.
	parent []int32
	// Child sets as intrusive doubly-linked sibling lists: firstChild
	// heads a node's children, nextSib/prevSib link siblings.
	firstChild []int32
	nextSib    []int32
	prevSib    []int32
	free       []int32
}

// freeSlot marks a released slot in the parent array; live nodes always
// have a real parent slot (the root points at itself).
const freeSlot = int32(-1)

// rootSlot is the slot of every tree's root node.
const rootSlot = int32(0)

// size returns the number of live nodes.
func (ns *slotStore) size() int { return len(ns.keys) - len(ns.free) }

// alloc creates a node with the given key, timestamp and parent slot
// and returns its slot (not yet linked into the parent's child list).
func (ns *slotStore) alloc(k nodeKey, ts int64, parent int32) int32 {
	var slot int32
	if n := len(ns.free); n > 0 {
		slot = ns.free[n-1]
		ns.free = ns.free[:n-1]
		ns.keys[slot], ns.ts[slot], ns.parent[slot] = k, ts, parent
		ns.firstChild[slot], ns.nextSib[slot], ns.prevSib[slot] = -1, -1, -1
	} else {
		slot = int32(len(ns.keys))
		ns.keys = append(ns.keys, k)
		ns.ts = append(ns.ts, ts)
		ns.parent = append(ns.parent, parent)
		ns.firstChild = append(ns.firstChild, -1)
		ns.nextSib = append(ns.nextSib, -1)
		ns.prevSib = append(ns.prevSib, -1)
	}
	return slot
}

// attach links child at the head of parent's sibling list.
func (ns *slotStore) attach(parent, child int32) {
	fc := ns.firstChild[parent]
	ns.nextSib[child] = fc
	ns.prevSib[child] = -1
	if fc >= 0 {
		ns.prevSib[fc] = child
	}
	ns.firstChild[parent] = child
}

// detach unlinks child from its parent's sibling list. A no-op for the
// root: its parent slot is a self-sentinel and it is never linked into
// any child list.
func (ns *slotStore) detach(child int32) {
	p, n := ns.prevSib[child], ns.nextSib[child]
	if p >= 0 {
		ns.nextSib[p] = n
	} else {
		par := ns.parent[child]
		if ns.firstChild[par] != child {
			return // root self-sentinel: not on any list
		}
		ns.firstChild[par] = n
	}
	if n >= 0 {
		ns.prevSib[n] = p
	}
	ns.nextSib[child], ns.prevSib[child] = -1, -1
}

// release frees the slot (the caller must have detached it). The
// slot's child list is left as-is: a released node's children are
// always released in the same pass, before any slot is reused.
func (ns *slotStore) release(slot int32) {
	ns.parent[slot] = freeSlot
	ns.free = append(ns.free, slot)
}

// live reports whether the slot holds a live node (cold-path iteration
// over all slots).
func (ns *slotStore) live(slot int32) bool { return ns.parent[slot] != freeSlot }

// treeStore is the slot store of a RAPQ tree together with its unique
// key → slot index: an open-addressing table laid over the slot store's
// own keys array. A bucket holds slot+1 (the zero value is "empty", so
// no key needs a sentinel) and a probe compares through keys[slot], so
// the table costs 4 bytes a bucket and stores no key twice. Buckets are
// a power of two at load ≤ ½, hashed multiplicatively, probed linearly
// and deleted by backward shift: there are no tombstones, so a tree that
// churns for hours probes no further than a fresh one. The insert
// cascade touches ts/parent/keys as flat array reads with no pointer
// chasing; lookups that already hold a slot skip the table entirely.
type treeStore struct {
	slotStore
	buckets []int32
	shift   uint8 // 64 - log2(len(buckets))
}

// hashMul is the 64-bit golden-ratio multiplier of the flat tables'
// multiplicative hash: the home bucket is the top bits of key*hashMul.
const hashMul = 0x9E3779B97F4A7C15

// minBuckets is the size a flat table starts at.
const minBuckets = 8

// tableShift returns the hash shift of a table of n (a power of two)
// buckets.
func tableShift(n int) uint8 { return uint8(64 - bits.TrailingZeros(uint(n))) }

// fillsHole is the backward-shift test of the flat tables' deletion:
// with a hole at bucket i, the entry at bucket j of the same cluster,
// whose home is h, may move into the hole unless h lies inside (i, j] —
// there its probe sequence starts past the hole and moving it would put
// it out of its own reach. Pulling every later entry that may move into
// the hole (which then moves to j) leaves no probe sequence cut, so the
// tables need no tombstones.
func fillsHole(i, j, h, mask uint32) bool { return (j-h)&mask >= (j-i)&mask }

func (ns *treeStore) home(k nodeKey) uint32 { return uint32(uint64(k) * hashMul >> ns.shift) }

// lookup returns the slot of key k, or -1. Load ≤ ½ guarantees every
// probe sequence meets an empty bucket.
func (ns *treeStore) lookup(k nodeKey) int32 {
	mask := uint32(len(ns.buckets) - 1)
	for i := ns.home(k); ; i++ {
		b := ns.buckets[i&mask]
		if b == 0 || ns.keys[b-1] == k {
			return b - 1
		}
	}
}

// alloc creates a node under its key; see slotStore.alloc.
func (ns *treeStore) alloc(k nodeKey, ts int64, parent int32) int32 {
	slot := ns.slotStore.alloc(k, ts, parent)
	if 2*ns.size() > len(ns.buckets) {
		ns.grow()
	} else {
		ns.index(slot)
	}
	return slot
}

// index enters a live, not yet indexed slot under its key.
func (ns *treeStore) index(slot int32) {
	mask := uint32(len(ns.buckets) - 1)
	i := ns.home(ns.keys[slot])
	for ns.buckets[i&mask] != 0 {
		i++
	}
	ns.buckets[i&mask] = slot + 1
}

// grow doubles the table (or creates it) and re-enters every live slot.
func (ns *treeStore) grow() {
	n := max(minBuckets, 2*len(ns.buckets))
	ns.buckets, ns.shift = make([]int32, n), tableShift(n)
	for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
		if ns.live(slot) {
			ns.index(slot)
		}
	}
}

// release unindexes and frees the slot; see slotStore.release. The
// bucket goes while keys[slot] still holds the key it was entered
// under: a recycled slot is indexed afresh under its new key.
func (ns *treeStore) release(slot int32) {
	mask := uint32(len(ns.buckets) - 1)
	i := ns.home(ns.keys[slot])
	for ns.buckets[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ns.buckets[j] != 0; j = (j + 1) & mask {
		if fillsHole(i, j, ns.home(ns.keys[ns.buckets[j]-1]), mask) {
			ns.buckets[i], i = ns.buckets[j], j
		}
	}
	ns.buckets[i] = 0
	ns.slotStore.release(slot)
}

// nodeTS returns the timestamp of the node keyed k and whether it
// exists (white-box test access).
func (tx *tree) nodeTS(k nodeKey) (int64, bool) {
	slot := tx.ns.lookup(k)
	if slot < 0 {
		return 0, false
	}
	return tx.ns.ts[slot], true
}

// nodeParent returns the key of the node's parent and whether the node
// exists (white-box test access).
func (tx *tree) nodeParent(k nodeKey) (nodeKey, bool) {
	slot := tx.ns.lookup(k)
	if slot < 0 {
		return 0, false
	}
	return tx.ns.keys[tx.ns.parent[slot]], true
}

// forEachNode calls f for every live node (white-box test access).
func (tx *tree) forEachNode(f func(k nodeKey, ts int64)) {
	ns := &tx.ns
	for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
		if ns.live(slot) {
			f(ns.keys[slot], ns.ts[slot])
		}
	}
}
