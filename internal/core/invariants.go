package core

import (
	"fmt"
	"slices"

	"streamrpq/internal/stream"
)

// checkTrees validates what holds of the Δ index under either path
// semantics (for tests and debugging; it walks every tree, O(|Δ|)):
//
//  1. Tree shape: the root sits in rootSlot under key (x, s0), is its own
//     parent and never expires; every other live node's parent is a live
//     slot of the same tree (no live slot under a free one) that lists
//     the node as a child, and child lists hold live nodes that point
//     back.
//  2. Timestamp monotonicity: a child's timestamp never exceeds its
//     parent's (path timestamps are minima over tree paths).
//  3. Census: the per-vertex records of a tree equal a fresh count of
//     its nodes per vertex and, as support, of its final-state nodes per
//     vertex (root excluded), stale or not; the record table holds
//     nothing else, finds every record under its vertex, and stays at
//     load ≤ ½, so no probe sequence meets a full table.
//  4. Inverted index: every row is strictly ascending, and the index is
//     exactly the union of the trees' vertex sets.
//  5. No expiry/delete pass is left open on the engine's scratch.
func (d *delta) checkTrees() error {
	invEntries := 0
	for root, tx := range d.trees {
		if tx.root != root {
			return fmt.Errorf("tree keyed %d has root %d", root, tx.root)
		}
		ns := &tx.ns
		if len(ns.keys) == 0 || !ns.live(rootSlot) || ns.keys[rootSlot] != mkNodeKey(root, d.a.Start) {
			return fmt.Errorf("tree %d: root node missing", root)
		}
		if ns.parent[rootSlot] != rootSlot {
			return fmt.Errorf("tree %d: root parent not self", root)
		}
		if ns.ts[rootSlot] != rootTS {
			return fmt.Errorf("tree %d: root ts = %d", root, ns.ts[rootSlot])
		}
		liveSlots := 0
		census := map[stream.VertexID]vrec{}
		for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
			if !ns.live(slot) {
				continue
			}
			liveSlots++
			nv, nstate := ns.keys[slot].vertex(), ns.keys[slot].state()
			rec := census[nv]
			rec.v = nv
			rec.nodes++
			if slot != rootSlot && d.a.Final[nstate] {
				rec.support++
			}
			census[nv] = rec
			// Children must be live and point back.
			for c := ns.firstChild[slot]; c >= 0; c = ns.nextSib[c] {
				if !ns.live(c) {
					return fmt.Errorf("tree %d: node (%d,%d) lists dead child slot %d", root, nv, nstate, c)
				}
				if ns.parent[c] != slot {
					return fmt.Errorf("tree %d: node (%d,%d) lists child (%d,%d) with a different parent",
						root, nv, nstate, ns.keys[c].vertex(), ns.keys[c].state())
				}
			}
			if slot == rootSlot {
				continue
			}
			pslot := ns.parent[slot]
			if pslot < 0 || pslot >= int32(len(ns.keys)) || !ns.live(pslot) {
				return fmt.Errorf("tree %d: node (%d,%d) has dangling parent slot %d", root, nv, nstate, pslot)
			}
			pk := ns.keys[pslot]
			listed := false
			for c := ns.firstChild[pslot]; c >= 0; c = ns.nextSib[c] {
				if c == slot {
					listed = true
					break
				}
			}
			if !listed {
				return fmt.Errorf("tree %d: parent (%d,%d) does not list child (%d,%d)",
					root, pk.vertex(), pk.state(), nv, nstate)
			}
			if ns.ts[slot] > ns.ts[pslot] {
				return fmt.Errorf("tree %d: child (%d,%d).ts=%d exceeds parent (%d,%d).ts=%d",
					root, nv, nstate, ns.ts[slot], pk.vertex(), pk.state(), ns.ts[pslot])
			}
		}
		if liveSlots != ns.size() {
			return fmt.Errorf("tree %d: %d live slots but the store counts %d", root, liveSlots, ns.size())
		}
		if err := checkVertexTable(&tx.verts, census); err != nil {
			return fmt.Errorf("tree %d: %w", root, err)
		}
		for v := range census {
			if !d.inv.has(v, root) {
				return fmt.Errorf("inv[%d] missing root %d", v, root)
			}
		}
		invEntries += len(census)
	}
	// Every tree's vertices are in the index; equal entry counts over
	// duplicate-free rows mean the index holds nothing else.
	for v, row := range d.inv.rows {
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				return fmt.Errorf("inv[%d] is not strictly ascending: %v", v, row)
			}
		}
		invEntries -= len(row)
	}
	if invEntries != 0 {
		return fmt.Errorf("inverted index holds %d entries more than the trees have vertices", -invEntries)
	}
	if d.sc.pre.n != 0 || len(d.sc.noted) != 0 {
		return fmt.Errorf("an expiry pass is still open: %d vertices noted", d.sc.pre.n)
	}
	return nil
}

// checkVertexTable validates a per-vertex record table against the
// records it should hold.
func checkVertexTable(t *vertexTable, want map[stream.VertexID]vrec) error {
	if n := len(t.recs); n != 0 && (n&(n-1) != 0 || t.shift != tableShift(n)) {
		return fmt.Errorf("vertex table: %d buckets with shift %d", n, t.shift)
	}
	if t.n != len(want) || 2*t.n > len(t.recs) {
		return fmt.Errorf("vertex table: %d records in %d buckets, want %d at load ≤ ½", t.n, len(t.recs), len(want))
	}
	occupied := 0
	for i := range t.recs {
		r := &t.recs[i]
		if r.nodes == 0 {
			if *r != (vrec{}) {
				return fmt.Errorf("vertex table: empty bucket holds %+v", *r)
			}
			continue
		}
		occupied++
		if *r != want[r.v] {
			return fmt.Errorf("vertex table: record %+v, actual %+v", *r, want[r.v])
		}
		if t.find(r.v) != r {
			return fmt.Errorf("vertex table: vertex %d is not found in its bucket", r.v)
		}
	}
	if occupied != t.n {
		return fmt.Errorf("vertex table: %d occupied buckets, count says %d", occupied, t.n)
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
	for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
		if ns.live(slot) && ns.lookup(ns.keys[slot]) != slot {
			return fmt.Errorf("key table: slot %d not found under its key (%d,%d)", slot, ns.keys[slot].vertex(), ns.keys[slot].state())
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
func (e *RAPQ) CheckInvariants() error {
	if err := e.checkTrees(); err != nil {
		return err
	}
	validFrom := e.win.Spec().ValidFrom(e.now)
	for root, tx := range e.trees {
		ns := &tx.ns
		if err := checkKeyTable(ns); err != nil {
			return fmt.Errorf("tree %d: %w", root, err)
		}
		for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
			if !ns.live(slot) {
				continue
			}
			nv, nstate := ns.keys[slot].vertex(), ns.keys[slot].state()
			if slot == rootSlot || ns.ts[slot] <= validFrom {
				continue
			}
			pslot := ns.parent[slot]
			pk := ns.keys[pslot]
			supported := false
			for _, he := range e.g.AppendOutAt(e.g.Epoch(), pk.vertex(), nil) {
				if he.V == nv && e.a.Trans[pk.state()][he.L] == nstate && min(ns.ts[pslot], he.TS) == ns.ts[slot] {
					supported = true
					break
				}
			}
			if !supported {
				return fmt.Errorf("tree %d: tree edge (%d,%d)->(%d,%d) ts=%d has no supporting graph edge",
					root, pk.vertex(), pk.state(), nv, nstate, ns.ts[slot])
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
	for root, tx := range e.trees {
		ns := &tx.ns
		listed := 0
		for key, ent := range tx.inst {
			if len(ent.slots) == 0 {
				return fmt.Errorf("tree %d: empty instance list for (%d,%d)", root, key.vertex(), key.state())
			}
			for i, slot := range ent.slots {
				if slot < 0 || slot >= int32(len(ns.keys)) || !ns.live(slot) {
					return fmt.Errorf("tree %d: dead instance (%d,%d) still indexed", root, key.vertex(), key.state())
				}
				if ns.keys[slot] != key {
					return fmt.Errorf("tree %d: instance (%d,%d) under key (%d,%d)",
						root, ns.keys[slot].vertex(), ns.keys[slot].state(), key.vertex(), key.state())
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
		if tx.inst[ns.keys[rootSlot]].marked {
			return fmt.Errorf("tree %d: root key is marked", root)
		}
	}
	return nil
}
