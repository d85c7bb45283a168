package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"streamrpq/internal/stream"
)

// checkTrees validates what holds of the Δ index under either path
// semantics (for tests and debugging; it walks every tree, O(|Δ|)):
//
//  1. Tree shape: the root sits in rootSlot under key (x, s0), is its own
//     parent and never expires; every other live node's parent is a live
//     slot of the same tree (no live slot under a free one) that lists
//     the node as a child, child lists hold live nodes that point back,
//     and the free list chains exactly the released slots.
//  2. Timestamp monotonicity: a child's timestamp never exceeds its
//     parent's (path timestamps are minima over tree paths).
//  3. Inverted index: a sound table (checkInvIndex) whose rows hold
//     exactly the trees' nodes, one entry per live slot (RAPQ), or their
//     keys, one entry per key with an instance (RSPQ): no entry outlives
//     its node or key, and no row its vertex's last tree.
//  4. Tree table: every slot holds a tree with its own id or is free —
//     zero and listed once on the free list — and the row of every
//     tree's root names it, while no other row names a tree, so no row
//     names a dropped id.
//  5. No expiry/delete pass is left open on the engine's scratch.
func (d *delta) checkTrees() error {
	if err := d.checkTreeTable(); err != nil {
		return err
	}
	want := map[stream.VertexID][]invEnt{}
	for id := range d.trees {
		tx := &d.trees[id]
		if len(tx.ns.nodes) == 0 {
			continue // a free slot
		}
		root, ns := tx.root, &tx.ns
		if !ns.live(rootSlot) || ns.nodes[rootSlot].key != mkNodeKey(root, d.a.Start) {
			return fmt.Errorf("tree %d: root node missing", root)
		}
		if ns.nodes[rootSlot].parent != rootSlot {
			return fmt.Errorf("tree %d: root parent not self", root)
		}
		if ns.nodes[rootSlot].ts != rootTS {
			return fmt.Errorf("tree %d: root ts = %d", root, ns.nodes[rootSlot].ts)
		}
		liveSlots := 0
		for slot := int32(0); slot < int32(len(ns.nodes)); slot++ {
			if !ns.live(slot) {
				continue
			}
			liveSlots++
			nv, nstate := ns.nodes[slot].key.vertex(), ns.nodes[slot].key.state()
			en := invEnt{tree: int32(id), slot: slot, state: nstate}
			if d.rootEnt == noSlot {
				en.slot = noSlot
			}
			if !slices.Contains(want[nv], en) {
				want[nv] = append(want[nv], en)
			}
			// Children must be live and point back.
			for c := ns.nodes[slot].firstChild; c >= 0; c = ns.nodes[c].nextSib {
				if !ns.live(c) {
					return fmt.Errorf("tree %d: node (%d,%d) lists dead child slot %d", root, nv, nstate, c)
				}
				if ns.nodes[c].parent != slot {
					return fmt.Errorf("tree %d: node (%d,%d) lists child (%d,%d) with a different parent",
						root, nv, nstate, ns.nodes[c].key.vertex(), ns.nodes[c].key.state())
				}
			}
			if slot == rootSlot {
				continue
			}
			pslot := ns.nodes[slot].parent
			if pslot < 0 || pslot >= int32(len(ns.nodes)) || !ns.live(pslot) {
				return fmt.Errorf("tree %d: node (%d,%d) has dangling parent slot %d", root, nv, nstate, pslot)
			}
			pk := ns.nodes[pslot].key
			listed := false
			for c := ns.nodes[pslot].firstChild; c >= 0; c = ns.nodes[c].nextSib {
				if c == slot {
					listed = true
					break
				}
			}
			if !listed {
				return fmt.Errorf("tree %d: parent (%d,%d) does not list child (%d,%d)",
					root, pk.vertex(), pk.state(), nv, nstate)
			}
			if ns.nodes[slot].ts > ns.nodes[pslot].ts {
				return fmt.Errorf("tree %d: child (%d,%d).ts=%d exceeds parent (%d,%d).ts=%d",
					root, nv, nstate, ns.nodes[slot].ts, pk.vertex(), pk.state(), ns.nodes[pslot].ts)
			}
		}
		if err := checkFreeList(&ns.slotStore, len(ns.nodes)-liveSlots); err != nil {
			return fmt.Errorf("tree %d: %w", root, err)
		}
	}
	if err := checkInvIndex(&d.inv); err != nil {
		return err
	}
	if d.inv.n != len(want) {
		return fmt.Errorf("inverted index holds %d rows, the trees have %d vertices", d.inv.n, len(want))
	}
	for v, ents := range want {
		slices.SortFunc(ents, compareEnts)
		if got := d.inv.row(v); !slices.Equal(got, ents) {
			return fmt.Errorf("inv[%d] = %v, the trees hold %v", v, got, ents)
		}
	}
	if len(d.sc.pre) != 0 || len(d.sc.noted) != 0 {
		return fmt.Errorf("an expiry pass is still open: %d vertices noted", len(d.sc.pre))
	}
	return nil
}

// checkTreeTable validates the tree table against its free list and the
// inverted index's tree names (invariant 4 of checkTrees).
func (d *delta) checkTreeTable() error {
	free := make([]bool, len(d.trees))
	for _, id := range d.freeIDs {
		if id < 0 || int(id) >= len(d.trees) || free[id] {
			return fmt.Errorf("tree table: free id %d out of range or listed twice", id)
		}
		if !reflect.ValueOf(d.trees[id]).IsZero() {
			return fmt.Errorf("tree table: free slot %d is not zero", id)
		}
		free[id] = true
	}
	for id := range d.trees {
		tx := &d.trees[id]
		if free[id] {
			continue
		}
		if len(tx.ns.nodes) == 0 || tx.id != int32(id) {
			return fmt.Errorf("tree table: slot %d is neither free nor a tree with its id (id %d, %d nodes)", id, tx.id, len(tx.ns.nodes))
		}
		if got := d.inv.rootTree(tx.root); got != int32(id) {
			return fmt.Errorf("tree table: the row of root %d names tree %d, want %d", tx.root, got, id)
		}
	}
	named := 0
	for _, r := range d.inv.rows {
		if r.tree != 0 {
			named++
		}
	}
	if trees := d.Stats().Trees; named != trees || trees != len(d.trees)-len(d.freeIDs) {
		return fmt.Errorf("tree table: %d rows name a tree, Stats counts %d trees", named, trees)
	}
	return nil
}

// checkFreeList validates a slot store's free list against the number
// of released slots (parent == freeSlot): the chain from free through
// nextSib holds released slots only, is acyclic and as long as both
// that number and nfree, so it holds exactly the released slots and
// size() counts the live ones.
func checkFreeList(ns *slotStore, released int) error {
	n := 0
	for f := ns.free - 1; f >= 0; f = ns.nodes[f].nextSib {
		// Every link so far was a released slot: one more than there are
		// means the chain repeats one.
		if f >= int32(len(ns.nodes)) || ns.live(f) || n == released {
			return fmt.Errorf("free list: link %d after %d of %d released slots", f, n, released)
		}
		n++
	}
	if n != released || int(ns.nfree) != released {
		return fmt.Errorf("free list: %d slots chained, %d counted, %d released", n, ns.nfree, released)
	}
	return nil
}

// compareEnts orders index entries by (tree, state, slot), the order of
// a row.
func compareEnts(a, b invEnt) int {
	return cmp.Or(cmp.Compare(a.key(), b.key()), cmp.Compare(a.slot, b.slot))
}

// checkInvIndex validates the inverted index's table: rows strictly
// ascending by (tree, state, slot) and found under their vertex, empty
// buckets empty, load ≤ ½.
func checkInvIndex(ix *invIndex) error {
	nb, occupied := len(ix.rows), 0
	for i, r := range ix.rows {
		if len(r.ents) == 0 {
			if r.v != 0 || r.tree != 0 || r.ents != nil {
				return fmt.Errorf("inverted index: empty bucket %d holds vertex %d", i, r.v)
			}
			continue
		}
		occupied++
		for j := 1; j < len(r.ents); j++ {
			if compareEnts(r.ents[j-1], r.ents[j]) >= 0 {
				return fmt.Errorf("inv[%d] is not strictly ascending: %v", r.v, r.ents)
			}
		}
		if ix.bucket(r.v) != uint32(i) {
			return fmt.Errorf("inverted index: vertex %d is not found in its bucket", r.v)
		}
	}
	if occupied != ix.n || 2*ix.n > nb || nb != 0 && (nb&(nb-1) != 0 || ix.shift != tableShift(nb)) {
		return fmt.Errorf("inverted index: %d rows, count says %d, in %d buckets (shift %d)", occupied, ix.n, nb, ix.shift)
	}
	return nil
}

// checkKeyTable validates the key index of a RAPQ tree against its slot
// store.
func checkKeyTable(ns *treeStore) error {
	nb, indexed := len(ns.buckets), 0
	for _, b := range ns.buckets {
		if b != 0 {
			indexed++
		}
	}
	if indexed != ns.size() || 2*indexed > nb || nb&(nb-1) != 0 || ns.shift != tableShift(nb) {
		return fmt.Errorf("key table: %d live slots, %d indexed in %d buckets (shift %d)", ns.size(), indexed, nb, ns.shift)
	}
	// Distinct live slots found under their keys sit in distinct buckets,
	// so with equal counts no bucket points anywhere else.
	for slot := int32(0); slot < int32(len(ns.nodes)); slot++ {
		if ns.live(slot) && ns.lookup(ns.nodes[slot].key) != slot {
			return fmt.Errorf("key table: slot %d not found under its key (%d,%d)", slot, ns.nodes[slot].key.vertex(), ns.nodes[slot].key.state())
		}
	}
	return nil
}

// CheckInvariants validates the RAPQ Δ index (Lemma 1 plus
// implementation-level bookkeeping): the shared tree invariants of
// checkTrees, and on top of them
//
//  1. Key index: the table's population is the live slots, every live
//     node is found under its own key and the table holds nothing else
//     (at most one node per key), at load ≤ ½ of a power-of-two bucket
//     array, so no probe sequence meets a full table.
//  2. Edge support: every tree edge whose child is still inside the
//     window corresponds to a graph edge with a matching automaton
//     transition such that the child's timestamp is min(parent.ts,
//     edge.ts). Out-of-window nodes are exempt: under lazy expiration
//     they linger until the next slide boundary and their support may
//     have been refreshed past them in the meantime.
//  3. Max-min closure, which lets window expiry only prune: for every
//     in-window node (w,s) and out-edge (w→v,l) at the engine's epoch
//     with δ(s,l)=t, node (v,t) exists with ts ≥ min(ts(w,s), edge.ts)
//     whenever that offer is in the window and above the last deadline.
//     Insert's refresh bound relies on it too: a refresh of (w,s) skips
//     the edges at or below its old timestamp, whose offers (v,t) holds.
//  4. Expiry postcondition: no node is at or below the last deadline.
func (e *RAPQ) CheckInvariants() error {
	if err := e.checkTrees(); err != nil {
		return err
	}
	validFrom := e.win.Spec().ValidFrom(e.now)
	for _, id := range e.allTrees() {
		tx := &e.trees[id]
		root, ns := tx.root, &tx.ns
		if err := checkKeyTable(ns); err != nil {
			return fmt.Errorf("tree %d: %w", root, err)
		}
		for slot := int32(0); slot < int32(len(ns.nodes)); slot++ {
			if !ns.live(slot) {
				continue
			}
			nv, nstate, nts := ns.nodes[slot].key.vertex(), ns.nodes[slot].key.state(), ns.nodes[slot].ts
			if nts <= e.deadline {
				return fmt.Errorf("tree %d: node (%d,%d) ts=%d outlived the expiry pass at %d", root, nv, nstate, nts, e.deadline)
			}
			if nts <= validFrom {
				continue
			}
			for _, he := range e.g.AppendOutWhere(e.epoch, nv, e.outWant[nstate], max(validFrom, e.deadline), nil) {
				t := e.a.Trans[nstate][he.L]
				if c := ns.lookup(mkNodeKey(he.V, t)); c < 0 || ns.nodes[c].ts < min(nts, he.TS) {
					return fmt.Errorf("tree %d: (%d,%d) offers (%d,%d) ts=%d, which it does not hold",
						root, nv, nstate, he.V, t, min(nts, he.TS))
				}
			}
			if slot == rootSlot {
				continue
			}
			pslot := ns.nodes[slot].parent
			pk := ns.nodes[pslot].key
			supported := false
			for _, he := range e.g.AppendOutAt(e.g.Epoch(), pk.vertex(), nil) {
				if he.V == nv && e.a.Trans[pk.state()][he.L] == nstate && min(ns.nodes[pslot].ts, he.TS) == ns.nodes[slot].ts {
					supported = true
					break
				}
			}
			if !supported {
				return fmt.Errorf("tree %d: tree edge (%d,%d)->(%d,%d) ts=%d has no supporting graph edge",
					root, pk.vertex(), pk.state(), nv, nstate, ns.nodes[slot].ts)
			}
		}
	}
	return nil
}

// CheckInvariants validates the RSPQ Δ index: the shared tree
// invariants of checkTrees, and on top of them that instance lists and
// slots agree (every live slot is listed exactly once under its key,
// lists hold nothing else and are never empty) and that the root's key
// is unmarked (a marked key has an instance by construction).
func (e *RSPQ) CheckInvariants() error {
	if err := e.checkTrees(); err != nil {
		return err
	}
	for _, id := range e.allTrees() {
		tx := &e.trees[id]
		root, ns := tx.root, &tx.ns
		listed := 0
		for key, ent := range tx.inst {
			if len(ent.slots) == 0 {
				return fmt.Errorf("tree %d: empty instance list for (%d,%d)", root, key.vertex(), key.state())
			}
			for i, slot := range ent.slots {
				if slot < 0 || slot >= int32(len(ns.nodes)) || !ns.live(slot) {
					return fmt.Errorf("tree %d: dead instance (%d,%d) still indexed", root, key.vertex(), key.state())
				}
				if ns.nodes[slot].key != key {
					return fmt.Errorf("tree %d: instance (%d,%d) under key (%d,%d)",
						root, ns.nodes[slot].key.vertex(), ns.nodes[slot].key.state(), key.vertex(), key.state())
				}
				if slices.Contains(ent.slots[:i], slot) {
					return fmt.Errorf("tree %d: slot %d listed twice under (%d,%d)", root, slot, key.vertex(), key.state())
				}
			}
			listed += len(ent.slots)
		}
		// Lists hold distinct live slots under their own keys, so equal
		// counts mean every live slot is listed.
		if listed != ns.size() {
			return fmt.Errorf("tree %d: %d live slots, %d listed instances", root, ns.size(), listed)
		}
		if tx.inst[ns.nodes[rootSlot].key].marked {
			return fmt.Errorf("tree %d: root key is marked", root)
		}
	}
	return nil
}
