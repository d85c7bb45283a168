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
//  3. Index consistency: per-tree vertex counts and the global
//     inverted index agree with tree contents.
//  4. Support counts: per-tree result-support counters equal the number
//     of final-state nodes per vertex (root excluded), stale or not.
func (d *delta) checkTrees() error {
	invSeen := map[stream.VertexID]map[stream.VertexID]bool{}
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
		vcount := map[stream.VertexID]int32{}
		support := map[stream.VertexID]int32{}
		for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
			if !ns.live(slot) {
				continue
			}
			liveSlots++
			nv, nstate := ns.keys[slot].vertex(), ns.keys[slot].state()
			vcount[nv]++
			if m := invSeen[nv]; m == nil {
				invSeen[nv] = map[stream.VertexID]bool{root: true}
			} else {
				m[root] = true
			}
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
			if d.a.Final[nstate] {
				support[nv]++
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
		for v, n := range vcount {
			if tx.vcount[v] != n {
				return fmt.Errorf("tree %d: vcount[%d]=%d, actual %d", root, v, tx.vcount[v], n)
			}
		}
		for v, n := range tx.vcount {
			if vcount[v] != n {
				return fmt.Errorf("tree %d: vcount has stale vertex %d", root, v)
			}
		}
		if err := checkSupportMaps(root, tx.support, support); err != nil {
			return err
		}
	}
	// Global inverted index must match union of trees.
	for v, roots := range invSeen {
		for root := range roots {
			if !d.inv.has(v, root) {
				return fmt.Errorf("inv[%d] missing root %d", v, root)
			}
		}
	}
	var staleErr error
	d.inv.forEach(func(v, root stream.VertexID) bool {
		if !invSeen[v][root] {
			staleErr = fmt.Errorf("inv[%d] has stale root %d", v, root)
			return false
		}
		return true
	})
	return staleErr
}

// CheckInvariants validates the RAPQ Δ index (Lemma 1 plus
// implementation-level bookkeeping): the shared tree invariants of
// checkTrees, and on top of them
//
//  1. Key index: every live node is indexed under its key and the index
//     holds nothing else (at most one node per key).
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
		if len(ns.idx) != ns.size() {
			return fmt.Errorf("tree %d: %d live slots but index has %d keys", root, ns.size(), len(ns.idx))
		}
		for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
			if !ns.live(slot) {
				continue
			}
			key := ns.keys[slot]
			nv, nstate := key.vertex(), key.state()
			if ns.lookup(key) != slot {
				return fmt.Errorf("tree %d: slot %d not indexed under its key (%d,%d)", root, slot, nv, nstate)
			}
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

// checkSupportMaps compares an engine's maintained result-support
// counters against a freshly recomputed census for one tree.
func checkSupportMaps(root stream.VertexID, got, want map[stream.VertexID]int32) error {
	for v, n := range want {
		if got[v] != n {
			return fmt.Errorf("tree %d: support[%d]=%d, actual %d", root, v, got[v], n)
		}
	}
	for v := range got {
		if want[v] == 0 {
			return fmt.Errorf("tree %d: support has stale vertex %d", root, v)
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
