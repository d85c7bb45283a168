package core

import (
	"math"
	"slices"
	"time"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// rootTS is the timestamp of tree roots: the root represents the empty
// path, which never expires.
const rootTS = int64(math.MaxInt64)

// expiredTS marks nodes cut off by an explicit deletion (§3.2): it is
// below every window deadline, so the expiry pass treats them as
// expired candidates.
const expiredTS = int64(math.MinInt64)

// RAPQ is the incremental engine for Regular Arbitrary Path Queries
// over sliding windows (Algorithm RAPQ, §3.1), with explicit-deletion
// support (Algorithm Delete, §3.2): the Δ substrate plus Algorithm
// Insert, ExpiryRAPQ and the unique key index Lemma 1 allows. Steady-
// state processing allocates nothing per edge once the scratch buffers
// have grown (asserted by alloc_test.go).
type RAPQ struct {
	delta

	deadline int64 // last expiry deadline (W^e - |W|)

	// scanAllTrees disables the inverted index (vertex → trees) and
	// makes every tuple visit every spanning tree, as a naive
	// implementation of the paper's pseudocode would ("foreach Tx ∈ Δ").
	// Exists for the ablation experiment; keep it off otherwise.
	scanAllTrees bool
}

// insertOp is one pending step of the insert cascade. parent is a
// treeStore slot: slots are stable for the duration of a cascade (no
// node is released mid-insert), which saves the key→slot probe the
// pointer-based representation paid per step.
type insertOp struct {
	parent int32
	v      stream.VertexID
	t      int32
	edgeTS int64
}

// NewRAPQ returns a RAPQ engine for the bound automaton and window
// specification.
func NewRAPQ(a *automaton.Bound, spec window.Spec, opts ...Option) *RAPQ {
	e := &RAPQ{}
	e.scanAllTrees = e.init(a, spec, opts).scanAllTrees
	e.live = e.isLive
	e.ops = deltaOps{insert: e.ApplyInsert, del: e.ApplyDelete, expire: e.ApplyExpiry}
	return e
}

// AttachGraph makes the engine index paths over a snapshot graph owned
// by a multi-query coordinator, which maintains it (inserts, deletes,
// expiry) exactly once for all member engines. Call before the first
// tuple.
func (e *RAPQ) AttachGraph(g *graph.Graph) { e.g = g }

// SetReadEpoch implements MemberEngine: subsequent traversals observe
// the shared graph at epoch ep.
func (e *RAPQ) SetReadEpoch(ep graph.Epoch) { e.epoch = ep }

// SetSink redirects the engine's result stream. A dynamically
// registered member swaps sinks exactly once, at activation: the
// bootstrap replay captures the window's live result set into a scratch
// sink, then the coordinator installs the real merge sink before the
// member sees its first stream tuple.
func (e *RAPQ) SetSink(s Sink) {
	if s == nil {
		s = discardSink{}
	}
	e.sink = s
}

// AlignClock advances the engine's stream clock to now if it is
// behind. After a window bootstrap this re-creates the clock a
// from-start engine would hold when the newest relevant tuple is no
// longer in the window (deleted or expired): the edge is gone, the
// clock survives.
func (e *RAPQ) AlignClock(now int64) {
	if now > e.now {
		e.now = now
	}
}

// BootstrapFromGraph builds the Δ index of a freshly created engine
// from the window content of g at its current epoch: the edges are
// replayed in canonical (TS, Src, Dst, Label) order (SnapshotEdges)
// through ApplyInsert, which reproduces the engine's canonical node
// timestamps and witness sets for the retained window — re-insertion
// refreshes and deleted edges have already been folded into the stored
// timestamps, and both folds agree with the max-min fixpoint an engine
// fed the full stream would have converged to. Matches emitted during
// the replay are the window's current live result set (they flow to the
// engine's sink); they correspond to results an engine registered from
// stream start would have emitted earlier, not to new stream tuples.
//
// No writer may be mutating g during the call: coordinators bootstrap
// between batches. The engine reads at that epoch until the next
// SetReadEpoch.
func (e *RAPQ) BootstrapFromGraph(g *graph.Graph) {
	e.g = g
	e.epoch = g.Epoch()
	for _, ed := range SnapshotEdges(g) {
		if !e.a.Relevant(int(ed.Label)) {
			continue
		}
		e.ApplyInsert(stream.Tuple{TS: ed.TS, Src: ed.Src, Dst: ed.Dst, Label: ed.Label})
	}
}

// RelevantLabel reports whether the label is in the query alphabet ΣQ;
// coordinators route tuples only to engines for which it is.
func (e *RAPQ) RelevantLabel(l stream.LabelID) bool { return e.a.Relevant(int(l)) }

// LabelSpace returns the size of the dense label space the automaton
// was bound against. All members of one coordinator must agree on it.
func (e *RAPQ) LabelSpace() int { return len(e.a.ByLabel) }

// ApplyInsert is Algorithm RAPQ lines 3–13: it updates the Δ index for
// an inserted edge that is already present in the snapshot graph. Most
// callers use Process; the multi-query coordinator calls ApplyInsert
// directly after updating the shared graph once.
func (e *RAPQ) ApplyInsert(t stream.Tuple) {
	roots, validFrom := e.candidateRoots(t)
	for _, root := range roots {
		e.insertEdge(&e.sc, root, t, validFrom)
	}
}

// candidateRoots advances the stream clock to t and returns the roots
// of the trees the inserted edge can extend, with the window's lower
// bound at that clock.
func (e *RAPQ) candidateRoots(t stream.Tuple) ([]stream.VertexID, int64) {
	if t.TS > e.now {
		e.now = t.TS
	}
	// Lazily materialize the tree rooted at the source vertex if the
	// label moves the automaton out of the start state.
	if e.a.Step(e.a.Start, int(t.Label)) != automaton.NoState {
		e.rootedTree(t.Src)
	}
	// Snapshot the candidate trees: insertion cascades may add this
	// vertex to further trees, but those cascades already see the new
	// edge in the graph, so they need no re-processing here. With the
	// inverted index disabled (ablation), every tree is a candidate.
	if e.scanAllTrees {
		return e.allRoots(), e.win.Spec().ValidFrom(e.now)
	}
	return e.rootsOf(t.Src), e.win.Spec().ValidFrom(e.now)
}

// insertEdge offers the edge to one candidate tree: every transition on
// its label whose source node is in the window (line 6) runs Insert.
func (e *RAPQ) insertEdge(sc *scratch, root stream.VertexID, t stream.Tuple, validFrom int64) {
	tx := e.trees[root]
	if tx == nil {
		return
	}
	for _, tr := range e.a.ByLabel[t.Label] {
		pslot := tx.ns.lookup(mkNodeKey(t.Src, tr.From))
		if pslot < 0 || tx.ns.ts[pslot] <= validFrom {
			continue
		}
		e.insert(sc, tx, pslot, t.Dst, tr.To, t.TS, validFrom)
	}
}

// rootedTree returns Tx, materializing it first if Δ does not represent
// it yet; a new tree's root enters the key index here.
func (e *RAPQ) rootedTree(x stream.VertexID) *tree {
	tx := e.ensureTree(x)
	if tx.ns.buckets == nil {
		tx.ns.grow()
	}
	return tx
}

// isLive reports whether the result pair (tx.root, v) is currently
// live: some final-state witness node for v sits inside the window.
// Stale witnesses (lazy expiry leaves them in the tree until the next
// slide boundary) do not count, and neither does the root node. The
// witness set — unlike the tree shape — is canonical, so liveness is a
// pure function of the stream prefix.
func (e *RAPQ) isLive(tx *tree, v stream.VertexID, validFrom int64) bool {
	if r := tx.verts.find(v); r == nil || r.support == 0 {
		return false
	}
	for _, s := range e.finals {
		if v == tx.root && s == e.a.Start {
			continue // the root witnesses only the empty path
		}
		if slot := tx.ns.lookup(mkNodeKey(v, s)); slot >= 0 && tx.ns.ts[slot] > validFrom {
			return true
		}
	}
	return false
}

// insert is Algorithm Insert, run with an explicit stack. It adds
// (v,t) to tx as a child of the node in slot parent (or improves its
// timestamp and re-parents it), reports results for final states, and
// expands the node's out-edges transitively. Expansion goes through
// graph.AppendOutAt into a reused buffer: the adjacency copy is taken
// once under the graph's stripe lock, then consumed lock-free with no
// per-edge closure or map lookup.
//
// Deviation from the paper: timestamp improvements of existing nodes
// are propagated recursively rather than left to the expiry pass;
// propagation is guarded by a strict timestamp
// increase, so total work stays within the amortized bound. Strictness
// also keeps the tree acyclic under re-parenting: a descendant's
// timestamp never strictly exceeds an ancestor's, so an improvement
// offer can never re-parent a node under its own descendant. Node
// timestamps converge to the max-min fixpoint over the window content
// (every node's timestamp witness is its tree path, and every
// improvement is propagated), so timestamps — unlike the incidental
// tree shape — are a pure function of the stream prefix. The sharded
// multi-query coordinator relies on that canonicity for deterministic
// result streams.
func (e *RAPQ) insert(sc *scratch, tx *tree, parent int32, v stream.VertexID, t int32, edgeTS int64, validFrom int64) {
	ns := &tx.ns
	calls := int64(0)
	stack := sc.stack[:0]
	stack = append(stack, insertOp{parent: parent, v: v, t: t, edgeTS: edgeTS})

	for len(stack) > 0 {
		op := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		newTS := min(op.edgeTS, ns.ts[op.parent])
		key := mkNodeKey(op.v, op.t)
		slot := ns.lookup(key)
		if slot >= 0 && ns.ts[slot] >= newTS {
			continue // line 7/9: no improvement possible
		}
		calls++

		if slot >= 0 {
			// A stale witness re-entering the window flips the pair
			// (root, v) live again; under lazy expiry this refresh is
			// the only trace of that transition, so it must emit here
			// exactly when no other in-window witness already covers it.
			if e.a.Final[op.t] && ns.ts[slot] <= validFrom && newTS > validFrom &&
				!sc.wasLive(op.v) && !e.isLive(tx, op.v, validFrom) {
				e.emit(sc, tx.root, op.v)
			}
			// Timestamp refresh: re-parent to the fresher path.
			ns.detach(slot)
			ns.ts[slot] = newTS
			ns.parent[slot] = op.parent
			ns.attach(op.parent, slot)
		} else {
			wasLive := false
			if e.a.Final[op.t] {
				wasLive = sc.wasLive(op.v) || e.isLive(tx, op.v, validFrom)
			}
			slot = ns.alloc(key, newTS, op.parent)
			ns.attach(op.parent, slot)
			if tx.verts.inc(op.v, e.a.Final[op.t]) {
				e.noteInv(sc, op.v, tx.root, false)
			}
			if e.a.Final[op.t] && newTS > validFrom && !wasLive {
				e.emit(sc, tx.root, op.v) // line 6 of Insert: (root, v) went live
			}
		}

		// Lines 8–10: expand out-edges of v that are inside the window.
		// The traversal reads at the engine's epoch handle (sub-batch
		// granularity); within the sub-batch the graph still runs ahead
		// of the tuple being applied, so edges with ts > e.now have not
		// arrived yet from this engine's point of view and are skipped.
		// Sequentially both filters are vacuous (epoch 0, no edge
		// outruns the stream clock). The scratch buffer is fully
		// consumed into stack pushes before the next AppendOutAt reuses
		// it.
		sc.out = e.g.AppendOutAt(e.epoch, op.v, sc.out[:0])
		nodeTS := ns.ts[slot]
		for _, he := range sc.out {
			if he.TS <= validFrom || he.TS > e.now {
				continue // expired or not-yet-arrived: not in W_{G,τ}
			}
			if he.L < 0 || int(he.L) >= len(e.a.ByLabel) {
				continue // label bound after this member: outside its ΣQ
			}
			q := e.a.Trans[op.t][he.L]
			if q == automaton.NoState {
				continue
			}
			childTS := min(nodeTS, he.TS)
			if cs := ns.lookup(mkNodeKey(he.V, q)); cs < 0 || ns.ts[cs] < childTS {
				stack = append(stack, insertOp{parent: slot, v: he.V, t: q, edgeTS: he.TS})
			}
		}
	}
	sc.stack = stack[:0]
	if sc.deferred {
		sc.insertCalls += calls
	} else {
		e.stats.InsertCalls += calls
	}
}

// remove deletes the node in slot from the tree entirely.
func (e *RAPQ) remove(sc *scratch, tx *tree, slot int32) {
	e.unlink(sc, tx, slot)
	tx.ns.release(slot)
}

// ApplyExpiry runs ExpiryRAPQ over every tree for a slide-boundary
// deadline. The caller is responsible for expiring the snapshot graph
// first (Process does; the multi-query coordinator expires the shared
// graph once).
func (e *RAPQ) ApplyExpiry(deadline int64) {
	start := time.Now()
	e.stats.ExpiryRuns++
	e.deadline = deadline
	for _, root := range e.allRoots() {
		tx := e.trees[root]
		e.expireTree(&e.sc, tx, deadline, false)
		e.dropIfRootOnly(tx)
	}
	e.stats.ExpiryTime += time.Since(start)
}

// expireTree is Algorithm ExpiryRAPQ for one spanning tree. Only the
// sequential Delete path sets invalidate; its retractions go straight
// to the sink.
func (e *RAPQ) expireTree(sc *scratch, tx *tree, deadline int64, invalidate bool) {
	ns := &tx.ns
	// Line 2: candidates with out-of-window timestamps. A child's
	// timestamp never exceeds its parent's, so candidates form whole
	// subtrees.
	candidates := sc.cands[:0]
	for slot := int32(0); slot < int32(len(ns.keys)); slot++ {
		if !ns.live(slot) || ns.ts[slot] > deadline {
			continue
		}
		candidates = append(candidates, ns.keys[slot])
		// Record, before any pruning, whether each pair about to
		// lose a final witness was live when the pass started.
		// Delete-marked subtrees were recorded by markSubtree while
		// their timestamps were still intact; everything else is
		// genuinely stale and recorded here.
		e.notePreLive(sc, tx, slot, deadline)
	}
	if len(candidates) == 0 {
		sc.cands = candidates
		return // nothing stale, so nothing noted: no pass to close
	}
	// Canonical candidate order: the reconnection below converges to the
	// same witness set and timestamps in any order, but visiting keys in
	// sorted order makes the sequential emission order within the pass a
	// pure function of the stream as well. (Slot order is mutation-
	// history order, which sub-batch pipelining does not canonicalize.)
	slices.Sort(candidates)
	// Line 3: prune all candidates from the tree. Every release happens
	// before any reconnection insert allocates, so slots never dangle.
	for _, key := range candidates {
		e.remove(sc, tx, ns.lookup(key))
	}
	// Lines 4–9: try to reconnect each candidate through a valid edge
	// from a valid node. Insert re-adds reachable descendants with
	// fresh timestamps. Every candidate's full in-neighbourhood is
	// scanned — even if an earlier candidate's cascade already re-added
	// it — and the maximal offer is presented to Insert, so each
	// reconnected node ends at its canonical max-min timestamp
	// regardless of the order candidates are visited in. (Offers from
	// parents that are themselves re-added later arrive through those
	// parents' improvement cascades.)
	byTarget := e.rev // rev[label][t] = sources
	for _, key := range candidates {
		v, t := key.vertex(), key.state()
		bestParent := int32(-1)
		var bestKey nodeKey
		var bestEdgeTS, bestTS int64
		sc.in = e.g.AppendInAt(e.epoch, v, sc.in[:0])
		for _, he := range sc.in {
			if he.TS <= deadline || he.TS > e.now {
				continue // expired, or not yet arrived (batched graph)
			}
			if he.L < 0 || int(he.L) >= len(byTarget) {
				continue // label bound after this member: outside its ΣQ
			}
			rt := byTarget[he.L]
			if rt == nil {
				continue
			}
			for _, s := range rt[t] {
				pk := mkNodeKey(he.V, s)
				pslot := ns.lookup(pk)
				if pslot < 0 || ns.ts[pslot] <= deadline {
					continue
				}
				offer := min(he.TS, ns.ts[pslot])
				if bestParent < 0 || offer > bestTS ||
					(offer == bestTS && pk < bestKey) {
					bestParent, bestKey, bestEdgeTS, bestTS = pslot, pk, he.TS, offer
				}
			}
		}
		if bestParent >= 0 {
			e.insert(sc, tx, bestParent, v, t, bestEdgeTS, deadline)
		}
	}
	sc.cands = candidates[:0]
	// Lines 11–15, canonicalized.
	e.endPass(sc, tx, deadline, invalidate)
}

// ApplyDelete is Algorithm Delete (§3.2): explicit deletion via the
// expiry machinery. The edge must already have been removed from the
// snapshot graph (Process does this; the multi-query coordinator
// removes it from the shared graph once).
func (e *RAPQ) ApplyDelete(t stream.Tuple) {
	if t.TS > e.now {
		e.now = t.TS
	}
	validFrom := e.win.Spec().ValidFrom(e.now)

	for _, root := range e.rootsOf(t.Src) {
		tx := e.trees[root]
		if tx == nil {
			continue
		}
		ns := &tx.ns
		touched := false
		// Lines 2–8: find tree edges matching the deleted edge and mark
		// their subtrees as expired. A tree edge w.r.t. Tx (Definition 13):
		// the target node exists and hangs under the source node (the root
		// hangs under itself).
		for _, tr := range e.a.ByLabel[t.Label] {
			c := ns.lookup(mkNodeKey(t.Dst, tr.To))
			if c > rootSlot && ns.keys[ns.parent[c]] == mkNodeKey(t.Src, tr.From) {
				e.markSubtree(&e.sc, tx, c, validFrom)
				touched = true
			}
		}
		if !touched {
			continue // deleting a non-tree edge leaves Tx unchanged
		}
		// Line 9: uniform handling through ExpiryRAPQ.
		e.expireTree(&e.sc, tx, validFrom, true)
		e.dropIfRootOnly(tx)
	}
}

var (
	_ Engine       = (*RAPQ)(nil)
	_ MemberEngine = (*RAPQ)(nil)
)
