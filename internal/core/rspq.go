package core

import (
	"cmp"
	"slices"
	"time"

	"streamrpq/internal/automaton"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// instances is the key-index entry of one (vertex, state) pair in an
// RSPQ tree: conflicts force re-traversals (§4.1), so a pair may have
// several instances, each a slot whose prefix path is the parent-slot
// walk to the root. An entry exists exactly while its key has an
// instance, so the marking Mx is a bit on it.
type instances struct {
	slots  []int32 // live instances, in creation order
	marked bool    // key ∈ Mx
}

// RSPQ is the incremental engine for Regular Simple Path Queries over
// sliding windows (Algorithms RSPQ, Extend, Unmark, ExpiryRSPQ in §4):
// the Δ substrate plus markings and conflict detection. Without
// conflicts it matches the amortized complexity of the RAPQ engine; with
// them the problem is NP-hard and the engine may take exponential time
// (bounded by WithMaxExtends if set).
//
// Its result stream is canonical because three orders are: instance-list
// creation order, the best-offer order of collectOffers, and ascending
// root order across trees (they share the Extend budget counter). None
// may depend on map iteration.
type RSPQ struct {
	delta

	maxExtends int64
	extends    int64 // extends so far for the current tuple
	budgetHit  bool  // some tuple exceeded maxExtends

	instScratch []int32     // instance-list snapshot
	removed     []spRemoved // instances pruned by the current expiry pass
}

// NewRSPQ returns an RSPQ engine for the bound automaton and window
// specification.
func NewRSPQ(a *automaton.Bound, spec window.Spec, opts ...Option) *RSPQ {
	e := &RSPQ{}
	e.maxExtends = e.init(a, spec, opts).maxExtends
	e.live = e.isLive
	e.ops = deltaOps{insert: e.applyInsert, del: e.applyDelete, expire: e.applyExpiry}
	return e
}

// BudgetExceeded reports whether any tuple's Extend cascade was cut off
// by WithMaxExtends. Once true, results may be incomplete (§4: the
// problem is NP-hard in the presence of conflicts); the experiment
// drivers report such a query as infeasible under simple path semantics.
func (e *RSPQ) BudgetExceeded() bool { return e.budgetHit }

// applyInsert is Algorithm RSPQ lines 3–13.
func (e *RSPQ) applyInsert(t stream.Tuple) {
	e.extends = 0
	validFrom := e.win.Spec().ValidFrom(e.now)
	if e.a.Step(e.a.Start, int(t.Label)) != automaton.NoState {
		if tx := e.ensureTree(t.Src); tx.inst == nil {
			tx.inst = map[nodeKey]instances{mkNodeKey(t.Src, e.a.Start): {slots: []int32{rootSlot}}}
		}
	}
	for _, root := range e.rootsOf(t.Src) {
		tx := e.trees[root]
		ns := &tx.ns.slotStore
		for _, tr := range e.a.ByLabel[t.Label] {
			target := mkNodeKey(t.Dst, tr.To)
			// Snapshot the instance list: Extend may append to it, and
			// freshly created instances have already seen the new edge
			// through their own expansion.
			e.instScratch = append(e.instScratch[:0], tx.inst[mkNodeKey(t.Src, tr.From)].slots...)
			for _, p := range e.instScratch {
				// Line 8 guards: the source is in the window, the prefix
				// path closes no product cycle, the target is not marked.
				if ns.ts[p] <= validFrom || pathVisits(ns, p, target) || tx.inst[target].marked {
					continue
				}
				e.extend(tx, p, t.Dst, tr.To, t.TS, validFrom)
			}
		}
	}
}

// pathVisits reports whether the prefix path ending at slot p visits
// key (the cycle guard t ∈ p[v]).
func pathVisits(ns *slotStore, p int32, key nodeKey) bool {
	for n := p; ; n = ns.parent[n] {
		if ns.keys[n] == key {
			return true
		}
		if n == rootSlot {
			return false
		}
	}
}

// firstStateAt returns the state of the first occurrence of vertex v on
// the prefix path ending at slot p (FIRST(p[v]) in the paper), walking
// from p to the root and keeping the last match seen.
func firstStateAt(ns *slotStore, p int32, v stream.VertexID) (state int32, found bool) {
	for n := p; ; n = ns.parent[n] {
		if k := ns.keys[n]; k.vertex() == v {
			state, found = k.state(), true
		}
		if n == rootSlot {
			return state, found
		}
	}
}

// isLive reports whether the result pair (tx.root, v) is live: some
// final-state instance for v other than the root sits inside the window
// (lazy expiry leaves stale ones until the next slide boundary).
func (e *RSPQ) isLive(tx *tree, v stream.VertexID, validFrom int64) bool {
	if r := tx.verts.find(v); r == nil || r.support == 0 {
		return false
	}
	for _, s := range e.finals {
		for _, slot := range tx.inst[mkNodeKey(v, s)].slots {
			if slot != rootSlot && tx.ns.ts[slot] > validFrom {
				return true
			}
		}
	}
	return false
}

// spCont is one pending out-edge continuation of an Extend expansion.
type spCont struct {
	key nodeKey
	l   stream.LabelID
	ts  int64
}

// extend is Algorithm Extend: it attempts to grow the prefix path
// ending at slot parent with the node (v,t) reached over an edge with
// timestamp edgeTS. No slot is released during a cascade, so the parent
// slots it carries stay valid.
func (e *RSPQ) extend(tx *tree, parent int32, v stream.VertexID, t int32, edgeTS int64, validFrom int64) {
	if e.maxExtends > 0 {
		if e.extends >= e.maxExtends {
			e.budgetHit = true
			return // safety valve; results may be incomplete from here on
		}
		e.extends++
	}
	e.stats.InsertCalls++
	ns := &tx.ns.slotStore

	// Lines 2–3: conflict detection between the first state visiting v
	// on this path and t, via suffix-language containment.
	if q, ok := firstStateAt(ns, parent, v); ok && !e.a.Cont[q][t] {
		e.stats.ConflictsFound++
		e.unmark(tx, parent, validFrom)
		return
	}

	// A path returning to the root vertex is never simple (the root is
	// the first vertex of every path), and in the containment case just
	// handled every continuation from (x,t) is subsumed by traversals
	// from the root (x,s0) itself: [s0] ⊇ [t]. Extending would emit the
	// spurious pair (x,x), whose only witness is the empty path.
	if v == tx.root {
		return
	}

	// Lines 5–13: extend the path. A result is emitted exactly when the
	// pair (root, v) flips from dead to live: duplicate witnesses and
	// pairs an expiry/delete pass merely cuts and reconnects (preLive)
	// stay silent, so the result stream is canonical.
	newTS := min(edgeTS, ns.ts[parent])
	if e.a.Final[t] && newTS > validFrom && !e.sc.wasLive(v) && !e.isLive(tx, v, validFrom) {
		e.emit(&e.sc, tx.root, v)
	}
	key := mkNodeKey(v, t)
	ent := tx.inst[key]
	if len(ent.slots) == 0 {
		ent.marked = true // line 9: first instance gets marked
	}
	node := ns.alloc(key, newTS, parent)
	ns.attach(parent, node)
	ent.slots = append(ent.slots, node)
	tx.inst[key] = ent
	if tx.verts.inc(v, e.a.Final[t]) {
		e.noteInv(&e.sc, v, tx.root, false)
	}

	// Lines 14–18: expand out-edges inside the window in canonical
	// (target key, label) order, not adjacency order: it becomes
	// instance-list order. The shared adjacency buffer is drained into
	// conts before the recursion can refill it.
	var conts []spCont
	e.sc.out = e.g.AppendOutAt(e.epoch, v, e.sc.out[:0])
	for _, he := range e.sc.out {
		if he.TS <= validFrom {
			continue
		}
		if r := e.a.Trans[t][he.L]; r != automaton.NoState {
			conts = append(conts, spCont{key: mkNodeKey(he.V, r), l: he.L, ts: he.TS})
		}
	}
	slices.SortFunc(conts, func(a, b spCont) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.l, b.l))
	})
	for _, c := range conts {
		// Line 15: r ∈ pnew[w], or (w,r) ∈ Mx.
		if pathVisits(ns, node, c.key) || tx.inst[c.key].marked {
			continue
		}
		e.extend(tx, node, c.key.vertex(), c.key.state(), c.ts, validFrom)
	}
}

// setMarked sets the marking of a key that has an instance.
func (tx *tree) setMarked(key nodeKey, marked bool) {
	ent := tx.inst[key]
	ent.marked = marked
	tx.inst[key] = ent
}

// unmark is Algorithm Unmark: starting from the end of the prefix path
// it removes markings from the maximal marked suffix of ancestors, then
// re-explores the incoming edges of every unmarked node, since paths
// through them may have been pruned by case 2 of Algorithm RSPQ.
func (e *RSPQ) unmark(tx *tree, last int32, validFrom int64) {
	ns := &tx.ns.slotStore
	var queue []nodeKey
	// Lines 2–6: stop at the first unmarked ancestor (the root at last).
	for n := last; tx.inst[ns.keys[n]].marked; n = ns.parent[n] {
		tx.setMarked(ns.keys[n], false)
		e.stats.Unmarkings++
		queue = append(queue, ns.keys[n])
	}
	// Lines 7–13: for each unmarked (v,t), re-run the traversals that
	// were pruned while it was marked. Each keeps an instance (the
	// ancestor) throughout, so none is re-marked and every offer is made.
	for _, key := range queue {
		e.reexplore(tx, key, validFrom)
	}
}

// reexplore presents the offers into key to Extend, best first, until
// key is marked — which Extend does when it restores the first instance
// of a key that had lost them all. Visiting the candidate parents in the
// canonical order makes whatever the cascade builds a pure function of
// the stream.
func (e *RSPQ) reexplore(tx *tree, key nodeKey, validFrom int64) {
	for _, of := range e.collectOffers(tx, key, validFrom) {
		if tx.inst[key].marked {
			return
		}
		if !hasEquivalentChild(&tx.ns.slotStore, of.parent, key, of.offer) {
			e.extend(tx, of.parent, key.vertex(), key.state(), of.ts, validFrom)
		}
	}
}

// spOffer is one candidate (parent instance, in-edge) pair that could
// extend into a key, with the fields that define the canonical order.
type spOffer struct {
	offer  int64 // min(edge ts, parent path ts): timestamp of the offered path
	pkey   nodeKey
	pidx   int32 // index in the parent key's instance list
	l      stream.LabelID
	ts     int64 // edge timestamp
	parent int32 // slot
}

// collectOffers gathers every viable (parent instance, edge) pair that
// could extend into key, best offer first: higher offered path timestamp
// wins, ties break on parent key, instance-list index, then label. Expiry
// reconnection and Unmark's re-exploration scan this order instead of
// the graph's adjacency order, which makes the restored instances — and
// with them every later traversal — a pure function of the stream.
func (e *RSPQ) collectOffers(tx *tree, key nodeKey, validFrom int64) []spOffer {
	ns := &tx.ns.slotStore
	var offers []spOffer
	e.sc.in = e.g.AppendInAt(e.epoch, key.vertex(), e.sc.in[:0])
	for _, he := range e.sc.in {
		if he.TS <= validFrom || e.rev[he.L] == nil {
			continue
		}
		for _, s := range e.rev[he.L][key.state()] {
			pk := mkNodeKey(he.V, s)
			for i, p := range tx.inst[pk].slots {
				if ns.ts[p] <= validFrom || pathVisits(ns, p, key) {
					continue
				}
				offers = append(offers, spOffer{
					offer: min(he.TS, ns.ts[p]), pkey: pk, pidx: int32(i),
					l: he.L, ts: he.TS, parent: p,
				})
			}
		}
	}
	slices.SortFunc(offers, func(a, b spOffer) int {
		return cmp.Or(cmp.Compare(b.offer, a.offer), cmp.Compare(a.pkey, b.pkey),
			cmp.Compare(a.pidx, b.pidx), cmp.Compare(a.l, b.l))
	})
	return offers
}

// hasEquivalentChild reports whether parent already has a child
// instance of key with a timestamp at least ts. Such a child covers the
// same prefix-path constraints, so re-extending would build a duplicate
// subtree (an optimization over the paper's pseudocode; it never prunes
// a traversal that could discover new results). Like allChildrenMarked
// it asks any/all over a child set: sibling order is unobservable.
func hasEquivalentChild(ns *slotStore, parent int32, key nodeKey, ts int64) bool {
	for c := ns.firstChild[parent]; c >= 0; c = ns.nextSib[c] {
		if ns.keys[c] == key && ns.ts[c] >= ts {
			return true
		}
	}
	return false
}

func allChildrenMarked(tx *tree, p int32) bool {
	for c := tx.ns.firstChild[p]; c >= 0; c = tx.ns.nextSib[c] {
		if !tx.inst[tx.ns.keys[c]].marked {
			return false
		}
	}
	return true
}

// applyExpiry runs ExpiryRSPQ over every tree, in canonical root order.
func (e *RSPQ) applyExpiry(deadline int64) {
	start := time.Now()
	e.stats.ExpiryRuns++
	for _, root := range e.allRoots() {
		tx := e.trees[root]
		e.expireTree(tx, deadline, false)
		e.dropIfRootOnly(tx)
	}
	e.stats.ExpiryTime += time.Since(start)
}

// spRemoved remembers one pruned instance for the re-marking pass.
type spRemoved struct {
	key    nodeKey
	parent int32 // slot
}

// expireTree is Algorithm ExpiryRSPQ for one spanning tree.
func (e *RSPQ) expireTree(tx *tree, deadline int64, invalidate bool) {
	ns := &tx.ns.slotStore
	// Line 2: the keys with an expired instance. Path timestamps are
	// non-increasing, so what goes is whole subtrees. Liveness is recorded
	// before pruning mutates the witness set (for delete-marked subtrees
	// markSubtree did, while their timestamps were intact).
	cands := e.sc.cands[:0]
	for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
		if ns.live(slot) && ns.ts[slot] <= deadline {
			cands = append(cands, ns.keys[slot])
			e.notePreLive(&e.sc, tx, slot, deadline)
		}
	}
	e.sc.cands = cands[:0]
	if len(cands) == 0 {
		return // nothing stale, so nothing noted: no pass to close
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	// Lines 3–5: prune Tx and Mx in canonical (key, instance index) order
	// — reconnection and the re-marking pass inherit it. The paper
	// reconnects only the marked candidates (P ← Mx ∩ E), arguing that
	// Unmark already re-explored the in-edges of unmarked keys; under
	// lazy expiry and explicit deletions that is unsound — the instances
	// Unmark created may sit in the pruned subtree themselves — so every
	// key that lost its last instance, and with its index entry its
	// marking, is reconnected (testdata/rspq-lazy-expiry-trial4.stream
	// exercises this gap).
	removed := e.removed[:0]
	lost := cands[:0]
	for _, key := range cands {
		e.instScratch = append(e.instScratch[:0], tx.inst[key].slots...)
		for _, slot := range e.instScratch {
			if ns.ts[slot] <= deadline {
				removed = append(removed, spRemoved{key: key, parent: ns.parent[slot]})
				e.remove(tx, slot)
			}
		}
		if len(tx.inst[key].slots) == 0 {
			lost = append(lost, key)
		}
	}
	// The re-marking pass looks at the parents of what was pruned. Every
	// release of this pass has happened and no allocation has: keep only
	// the non-root parents still live now, because a reconnection may
	// recycle a released parent's slot and make it look live.
	parents := removed[:0]
	for _, r := range removed {
		if r.parent != rootSlot && ns.live(r.parent) {
			parents = append(parents, r)
		}
	}
	// Lines 6–11: reconnect the lost keys through valid edges. The first
	// offer Extend accepts re-marks the key and ends its scan.
	for _, key := range lost {
		e.reexplore(tx, key, deadline)
	}
	// Lines 12–14: parents whose conflicting descendants expired are
	// marked again once every remaining child is marked.
	for _, r := range parents {
		if len(tx.inst[r.key].slots) == 0 && allChildrenMarked(tx, r.parent) {
			tx.setMarked(ns.keys[r.parent], true)
		}
	}
	e.removed = removed[:0]
	// Lines 15–18, canonicalized.
	e.endPass(&e.sc, tx, deadline, invalidate)
}

// remove deletes one instance (not its descendants: the expiry pass
// removes them separately). The instance list keeps its order, which
// steers traversal order.
func (e *RSPQ) remove(tx *tree, slot int32) {
	e.unlink(&e.sc, tx, slot)
	key := tx.ns.keys[slot]
	if ent := tx.inst[key]; len(ent.slots) == 1 {
		delete(tx.inst, key)
	} else {
		i := slices.Index(ent.slots, slot)
		ent.slots = slices.Delete(ent.slots, i, i+1)
		tx.inst[key] = ent
	}
	tx.ns.slotStore.release(slot)
}

// applyDelete handles negative tuples with the expiry machinery, as
// §4.1 prescribes ("the algorithm RSPQ processes explicit deletions in
// the same manner as its RAPQ counterpart").
func (e *RSPQ) applyDelete(t stream.Tuple) {
	e.extends = 0
	validFrom := e.win.Spec().ValidFrom(e.now)
	for _, root := range e.rootsOf(t.Src) {
		tx := e.trees[root]
		touched := false
		for _, tr := range e.a.ByLabel[t.Label] {
			src := mkNodeKey(t.Src, tr.From)
			for _, c := range tx.inst[mkNodeKey(t.Dst, tr.To)].slots {
				// A tree edge w.r.t. Tx: c hangs under an instance of the
				// source key (the root hangs under itself).
				if c != rootSlot && tx.ns.keys[tx.ns.parent[c]] == src {
					e.markSubtree(&e.sc, tx, c, validFrom)
					touched = true
				}
			}
		}
		if touched {
			e.expireTree(tx, validFrom, true)
			e.dropIfRootOnly(tx)
		}
	}
}

var _ Engine = (*RSPQ)(nil)
