package core

import "math/bits"

// node is one node of a spanning tree: its (vertex, state) key, its path
// timestamp and its links, 32 bytes, so two nodes share a cache line and
// a key probe loads the timestamp and links its caller reads next.
type node struct {
	key nodeKey
	ts  int64
	// parent is the parent's slot; the root is its own parent
	// (self-sentinel), freeSlot marks a released slot.
	parent int32
	// Child sets as intrusive doubly-linked sibling lists: firstChild
	// heads a node's children, nextSib/prevSib link siblings. On a
	// released slot nextSib links the free list instead.
	firstChild, nextSib, prevSib int32
}

// slotStore holds the nodes of one spanning tree as one slot-indexed
// array of records, with intrusive sibling lists for the child sets
// instead of per-node heap objects and per-node child maps: a tree that
// grows re-allocates one array. Both engines keep their trees in it;
// they differ in the key index laid over the slots (see tree).
//
// Slot lifecycle: alloc returns a free slot (reusing released ones),
// release marks a slot free (parent == freeSlot) and recycles it
// later. Released slots form a LIFO list chained through nextSib, so
// alloc reuses the most recently released slot first. Slots are stable
// while a node lives, and nothing is released during an insert cascade,
// so a cascade can carry parent slots instead of keys. An expiry pass
// releases slots strictly before its reconnection allocates (RAPQ's
// deletion repair allocates none), and what it releases always forms
// whole subtrees, so no live node ever points at a released slot. The root is its tree's first node: it sits in
// rootSlot for the tree's whole life.
type slotStore struct {
	nodes []node
	free  int32 // head of the free list + 1 (0: empty)
	nfree int32 // length of the free list
}

// freeSlot marks a released slot's parent; live nodes always have a
// real parent slot (the root points at itself).
const freeSlot = int32(-1)

// rootSlot is the slot of every tree's root node.
const rootSlot = int32(0)

// size returns the number of live nodes.
func (ns *slotStore) size() int { return len(ns.nodes) - int(ns.nfree) }

// alloc creates a node with the given key, timestamp and parent slot
// and returns its slot (not yet linked into the parent's child list).
func (ns *slotStore) alloc(k nodeKey, ts int64, parent int32) int32 {
	n := node{key: k, ts: ts, parent: parent, firstChild: -1, nextSib: -1, prevSib: -1}
	if ns.free == 0 {
		ns.nodes = append(ns.nodes, n)
		return int32(len(ns.nodes) - 1)
	}
	slot := ns.free - 1
	ns.free = ns.nodes[slot].nextSib + 1
	ns.nfree--
	ns.nodes[slot] = n
	return slot
}

// attach links child at the head of parent's sibling list.
func (ns *slotStore) attach(parent, child int32) {
	p, c := &ns.nodes[parent], &ns.nodes[child]
	fc := p.firstChild
	c.nextSib, c.prevSib = fc, -1
	if fc >= 0 {
		ns.nodes[fc].prevSib = child
	}
	p.firstChild = child
}

// detach unlinks child from its parent's sibling list. A no-op for the
// root: its parent slot is a self-sentinel and it is never linked into
// any child list.
func (ns *slotStore) detach(child int32) {
	c := &ns.nodes[child]
	p, n := c.prevSib, c.nextSib
	if p >= 0 {
		ns.nodes[p].nextSib = n
	} else {
		par := &ns.nodes[c.parent]
		if par.firstChild != child {
			return // root self-sentinel: not on any list
		}
		par.firstChild = n
	}
	if n >= 0 {
		ns.nodes[n].prevSib = p
	}
	c.nextSib, c.prevSib = -1, -1
}

// release frees the slot (the caller must have detached it, so no
// sibling list runs through its nextSib) and pushes it on the free list.
// The slot's child list is left as-is: a released node's children are
// always released in the same pass, before any slot is reused.
func (ns *slotStore) release(slot int32) {
	n := &ns.nodes[slot]
	n.parent, n.nextSib = freeSlot, ns.free-1
	ns.free = slot + 1
	ns.nfree++
}

// live reports whether the slot holds a live node (cold-path iteration
// over all slots).
func (ns *slotStore) live(slot int32) bool { return ns.nodes[slot].parent != freeSlot }

// treeStore is the slot store of a RAPQ tree together with its unique
// key → slot index: an open-addressing table laid over the slot store's
// own records. A bucket holds slot+1 (the zero value is "empty", so no
// key needs a sentinel) and a probe compares through nodes[slot].key,
// so the table costs 4 bytes a bucket, stores no key twice, and a hit
// leaves the node's timestamp and links in cache for the caller.
// Buckets are a power of two at load ≤ ½, hashed multiplicatively,
// probed linearly and deleted by backward shift: there are no
// tombstones, so a tree that churns for hours probes no further than a
// fresh one. Lookups that already hold a slot skip the table entirely.
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
		if b == 0 || ns.nodes[b-1].key == k {
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
	i := ns.home(ns.nodes[slot].key)
	for ns.buckets[i&mask] != 0 {
		i++
	}
	ns.buckets[i&mask] = slot + 1
}

// grow doubles the table (or creates it) and re-enters every live slot.
func (ns *treeStore) grow() {
	n := max(minBuckets, 2*len(ns.buckets))
	ns.buckets, ns.shift = make([]int32, n), tableShift(n)
	for slot := int32(0); slot < int32(len(ns.nodes)); slot++ {
		if ns.live(slot) {
			ns.index(slot)
		}
	}
}

// release unindexes and frees the slot; see slotStore.release. The
// bucket goes while the slot still holds the key it was entered
// under: a recycled slot is indexed afresh under its new key.
func (ns *treeStore) release(slot int32) {
	mask := uint32(len(ns.buckets) - 1)
	i := ns.home(ns.nodes[slot].key)
	for ns.buckets[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ns.buckets[j] != 0; j = (j + 1) & mask {
		if fillsHole(i, j, ns.home(ns.nodes[ns.buckets[j]-1].key), mask) {
			ns.buckets[i], i = ns.buckets[j], j
		}
	}
	ns.buckets[i] = 0
	ns.slotStore.release(slot)
}
