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
// A full array grows through p (Parking.grownNodes).
func (ns *slotStore) alloc(k nodeKey, ts int64, parent int32, p *Parking) int32 {
	n := node{key: k, ts: ts, parent: parent, firstChild: -1, nextSib: -1, prevSib: -1}
	if ns.free == 0 {
		if len(ns.nodes) == cap(ns.nodes) {
			ns.nodes = p.grownNodes(ns.nodes)
		}
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
func (ns *treeStore) alloc(k nodeKey, ts int64, parent int32, p *Parking) int32 {
	slot := ns.slotStore.alloc(k, ts, parent, p)
	if 2*ns.size() > len(ns.buckets) {
		ns.grow(p)
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

// grow doubles the table (or creates it), taking the new buckets from
// p, and re-enters every live slot.
func (ns *treeStore) grow(p *Parking) {
	ns.buckets = p.grownBuckets(ns.buckets)
	ns.shift = tableShift(len(ns.buckets))
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

// Parking lends arrays between the trees of the engines that share it:
// the node arrays and key-table buckets that growing trees outgrew and
// dropped trees left, by power-of-two capacity class. Under a parking
// both kinds grow by doubling (grownNodes, grownBuckets), so every array
// is a power of two long, and a tree that takes its next capacity from
// the parking holds exactly the capacities a fresh tree would: only
// where the arrays come from changes. Its owner empties it (Release) at
// each batch boundary, so retention is bounded by one batch's churn,
// and it takes no lock: the owner runs every engine that shares it on
// one goroutine. A nil Parking is valid: it parks nothing, and its
// trees grow as Go's append grows a slice.
type Parking struct {
	nodes   shelf[node]
	buckets shelf[int32]
}

// shelf is one kind of array of a parking, listed by capacity class
// (log2 of the capacity; slots are int32, so 32 classes are enough).
type shelf[T any] [32][][]T

// take returns an empty array of capacity n (a power of two): the one
// parked last in its class if there is one, else a fresh one. Its
// elements may hold a former owner's values.
func (sh *shelf[T]) take(n int) []T {
	c := bits.TrailingZeros(uint(n))
	l := sh[c]
	if len(l) == 0 {
		return make([]T, 0, n)
	}
	a := l[len(l)-1]
	l[len(l)-1] = nil
	sh[c] = l[:len(l)-1]
	return a[:0]
}

// park shelves a, which its owner no longer reads.
func (sh *shelf[T]) park(a []T) {
	if cap(a) > 0 {
		c := bits.TrailingZeros(uint(cap(a)))
		sh[c] = append(sh[c], a)
	}
}

// grownNodes returns a node array with room for one more node, holding
// a's nodes: under a parking one of twice a's capacity (at least 1),
// taken from it, with a parked.
func (p *Parking) grownNodes(a []node) []node {
	if p == nil {
		return append(a, node{})[:len(a)]
	}
	grown := append(p.nodes.take(max(1, 2*cap(a))), a...)
	p.nodes.park(a)
	return grown
}

// grownBuckets returns an empty key table of twice old's size (at least
// minBuckets) and parks old.
func (p *Parking) grownBuckets(old []int32) []int32 {
	n := max(minBuckets, 2*len(old))
	if p == nil {
		return make([]int32, n)
	}
	b := p.buckets.take(n)[:n]
	clear(b)
	p.buckets.park(old)
	return b
}

// drop parks both arrays of a tree Δ no longer holds.
func (p *Parking) drop(ns *treeStore) {
	if p != nil {
		p.nodes.park(ns.nodes)
		p.buckets.park(ns.buckets)
	}
	ns.nodes, ns.buckets = nil, nil
}

// Release drops every parked array, so that between batches the parking
// holds none; the class lists keep their capacity for the next batch.
func (p *Parking) Release() {
	for c := range p.nodes {
		clear(p.nodes[c])
		p.nodes[c] = p.nodes[c][:0]
		clear(p.buckets[c])
		p.buckets[c] = p.buckets[c][:0]
	}
}

// Parked returns the number of arrays the parking holds.
func (p *Parking) Parked() int {
	n := 0
	for c := range p.nodes {
		n += len(p.nodes[c]) + len(p.buckets[c])
	}
	return n
}
