package core

import (
	"math"
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
// below every window deadline, so a deletion's repair (reconnect) offers
// nothing through them until they settle.
const expiredTS = int64(math.MinInt64)

// RAPQ is the incremental engine for Regular Arbitrary Path Queries
// over sliding windows (Algorithm RAPQ, §3.1), with explicit-deletion
// support (Algorithm Delete, §3.2): the Δ substrate plus Algorithm
// Insert, ExpiryRAPQ (only pruning at slide boundaries) and the unique
// key index Lemma 1 allows. Steady-state processing allocates nothing per
// edge once the scratch buffers have grown, and a growing tree
// re-allocates only its node array and key table (alloc_test.go).
type RAPQ struct {
	delta

	deadline int64 // last expiry deadline (W^e - |W|); math.MinInt64 before the first
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
	e := &RAPQ{deadline: math.MinInt64}
	e.init(a, spec, opts)
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

// SetParking implements MemberEngine: from now on the engine's trees
// take the arrays they grow into from p and park the arrays they outgrow
// or leave when dropped. p's owner runs every engine it lends to on one
// goroutine and empties it at each batch boundary.
func (e *RAPQ) SetParking(p *Parking) { e.park = p }

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
// The replay leaves the stream clock at the newest surviving relevant
// edge, which may trail a from-start engine's when a newer relevant
// edge was deleted or has expired. Nothing needs it aligned: an
// emission or a validFrom reads the clock only inside ApplyInsert and
// ApplyDelete, after raising it to the tuple's timestamp, which is never
// below it, and ApplyExpiry reads its deadline, not the clock.
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
	if t.TS > e.now {
		e.now = t.TS
	}
	validFrom := e.win.Spec().ValidFrom(e.now)
	// Lazily materialize the tree rooted at the source vertex if the
	// label moves the automaton out of the start state.
	if e.a.Step(e.a.Start, int(t.Label)) != automaton.NoState {
		e.rootedTree(t.Src)
	}
	// Snapshot the candidate nodes, the entries of the source whose state
	// δ(·, label) steps from, ascending by (tree, state): insertion
	// cascades may add the source to further trees, or in further states,
	// but those cascades already see the new edge in the graph, so they
	// need no re-processing here. Each candidate in the window runs Insert
	// (line 6) unless the target's entries, snapshotted too, show that
	// Insert's line 7 would stop it: the target node is already as fresh
	// as the offer. No node is released during an insert, so a snapshot
	// slot stays the node it names; a target node a cascade adds after
	// the snapshot only sends the candidate into Insert, which probes.
	sc := &e.sc
	src := sc.src[:0]
	for _, en := range e.inv.row(t.Src) {
		if e.outWant[en.state].Has(t.Label) {
			src = append(src, en)
		}
	}
	dst := sc.dst[:0]
	if len(src) > 0 {
		dst = append(dst, e.inv.row(t.Dst)...)
	}
	var tx *tree
	j := 0 // dst[j:] starts at the candidate's tree
	for i, c := range src {
		if i == 0 || c.tree != src[i-1].tree {
			tx = &e.trees[c.tree]
			for j < len(dst) && dst[j].tree < c.tree {
				j++
			}
		}
		pts := tx.ns.nodes[c.slot].ts
		if pts <= validFrom {
			continue
		}
		to := e.a.Trans[c.state][t.Label]
		k := j
		for k < len(dst) && dst[k].tree == c.tree && dst[k].state < to {
			k++
		}
		if k < len(dst) && dst[k].tree == c.tree && dst[k].state == to &&
			tx.ns.nodes[dst[k].slot].ts >= min(t.TS, pts) {
			continue
		}
		e.insert(tx, c.slot, t.Dst, to, t.TS, validFrom)
	}
	sc.src, sc.dst = src[:0], dst[:0]
}

// rootedTree returns Tx, materializing it first if Δ does not represent
// it yet; a new tree's root enters the key index here.
func (e *RAPQ) rootedTree(x stream.VertexID) *tree {
	tx := e.ensureTree(x)
	if tx.ns.buckets == nil {
		tx.ns.grow(e.park)
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
	for _, en := range e.inv.of(v, tx.id) {
		// The root witnesses only the empty path.
		if en.slot != rootSlot && e.a.Final[en.state] && tx.ns.nodes[en.slot].ts > validFrom {
			return true
		}
	}
	return false
}

// insert is Algorithm Insert, run with an explicit stack. It adds
// (v,t) to tx as a child of the node in slot parent (or improves its
// timestamp and re-parents it), reports results for final states, and
// expands the node's out-edges transitively. Expansion goes through
// graph.AppendOutWhere into a reused buffer: only the in-window cells
// δ(t, ·) steps on are copied (on a hub, only their label runs are
// read), then used with no check or map lookup. On a hub the buffer
// holds each label's cells by ascending timestamp, so the stack pops the
// freshest offer first and a node mostly gets its final timestamp on
// its first visit; the order shapes the tree and InsertCalls,
// deterministically, but not the results. A refresh of an in-window node
// offers only the edges above its old timestamp (semi-naive evaluation):
// an edge at or below it offers e.ts both before and after the refresh,
// and by the max-min closure (invariant 3 of CheckInvariants) the child
// already holds that much. The skipped edges would push nothing, so the
// tree, InsertCalls and the results are those of the full expansion.
//
// Deviation from the paper: timestamp improvements of existing nodes
// are propagated recursively rather than left to the expiry pass;
// propagation is guarded by a strict timestamp increase, so total work
// stays within the amortized bound. Strictness also keeps the tree
// acyclic under re-parenting: a descendant's timestamp never strictly
// exceeds an ancestor's, so an improvement offer can never re-parent a
// node under its own descendant. Node timestamps converge to the max-min
// fixpoint over the window content, so they — unlike the incidental tree
// shape — are a pure function of the stream prefix: the sharded
// coordinator's deterministic result streams rely on that, and window
// expiry is left nothing to reconnect (a node at or below the deadline
// has no in-window root path left), so ApplyExpiry only prunes.
func (e *RAPQ) insert(tx *tree, parent int32, v stream.VertexID, t int32, edgeTS int64, validFrom int64) {
	ns, sc := &tx.ns, &e.sc
	calls := int64(0)
	stack := sc.stack[:0]
	stack = append(stack, insertOp{parent: parent, v: v, t: t, edgeTS: edgeTS})

	for len(stack) > 0 {
		op := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		newTS := min(op.edgeTS, ns.nodes[op.parent].ts)
		key := mkNodeKey(op.v, op.t)
		slot := ns.lookup(key)
		if slot >= 0 && ns.nodes[slot].ts >= newTS {
			continue // line 7/9: no improvement possible
		}
		calls++

		after := validFrom // the expansion's bound, see above
		if slot >= 0 {
			after = max(after, ns.nodes[slot].ts)
			// A stale witness re-entering the window flips the pair
			// (root, v) live again; under lazy expiry this refresh is
			// the only trace of that transition, so it must emit here
			// exactly when no other in-window witness already covers it.
			if e.a.Final[op.t] && ns.nodes[slot].ts <= validFrom && newTS > validFrom &&
				!sc.wasLive(op.v) && !e.isLive(tx, op.v, validFrom) {
				e.emit(tx.root, op.v)
			}
			// Timestamp refresh: re-parent to the fresher path.
			ns.detach(slot)
			ns.nodes[slot].ts, ns.nodes[slot].parent = newTS, op.parent
			ns.attach(op.parent, slot)
		} else {
			wasLive := false
			if e.a.Final[op.t] {
				wasLive = sc.wasLive(op.v) || e.isLive(tx, op.v, validFrom)
			}
			slot = ns.alloc(key, newTS, op.parent, e.park)
			ns.attach(op.parent, slot)
			e.inv.add(op.v, tx.id, op.t, slot)
			if e.a.Final[op.t] && newTS > validFrom && !wasLive {
				e.emit(tx.root, op.v) // line 6 of Insert: (root, v) went live
			}
		}

		// Lines 8–10: expand out-edges of v that are inside the window and
		// that δ(t, ·) steps on. The traversal reads at the engine's epoch
		// handle, which a coordinator sets to the sequential prefix as of
		// the tuple being applied. The scratch buffer is fully consumed
		// into stack pushes before the next AppendOutWhere reuses it.
		sc.out = e.g.AppendOutWhere(e.epoch, op.v, e.outWant[op.t], after, sc.out[:0])
		nodeTS := ns.nodes[slot].ts
		for _, he := range sc.out {
			q := e.a.Trans[op.t][he.L]
			childTS := min(nodeTS, he.TS)
			if cs := ns.lookup(mkNodeKey(he.V, q)); cs < 0 || ns.nodes[cs].ts < childTS {
				stack = append(stack, insertOp{parent: slot, v: he.V, t: q, edgeTS: he.TS})
			}
		}
	}
	sc.stack = stack[:0]
	e.stats.InsertCalls += calls
}

// remove deletes the node in slot from the tree and the inverted index
// entirely.
func (e *RAPQ) remove(tx *tree, slot int32) {
	key := tx.ns.nodes[slot].key
	tx.ns.detach(slot)
	e.inv.drop(key.vertex(), tx.id, key.state(), slot)
	tx.ns.release(slot)
}

// ApplyExpiry is ExpiryRAPQ's prune (line 3) at a slide-boundary
// deadline: reconnection could find nothing (see insert), and a pass that
// emits nothing visits the trees in descending id order. Index rows are
// ascending by tree id, so a vertex that leaves many trees in one pass
// loses its last entry each time, and its row shifts nothing. The caller
// expires the snapshot graph first (Process does; a coordinator, the
// shared one once).
func (e *RAPQ) ApplyExpiry(deadline int64) {
	start := time.Now()
	e.stats.ExpiryRuns++
	e.deadline = deadline
	for id := len(e.trees) - 1; id >= 0; id-- {
		tx := &e.trees[id] // a free slot has no nodes: nothing to do
		for slot := rootSlot + 1; slot < int32(len(tx.ns.nodes)); slot++ {
			if tx.ns.live(slot) && tx.ns.nodes[slot].ts <= deadline {
				e.remove(tx, slot)
			}
		}
		e.dropIfRootOnly(tx)
	}
	e.stats.ExpiryTime += time.Since(start)
}

// ApplyDelete is Algorithm Delete (§3.2): the subtrees under the deleted
// tree edges are marked expired and repaired in place (reconnect) — the
// expiry machinery of the paper, restricted to what the deletion cut.
// The edge must already have been removed from the snapshot graph
// (Process does this; the multi-query coordinator removes it from the
// shared graph once).
func (e *RAPQ) ApplyDelete(t stream.Tuple) {
	if t.TS > e.now {
		e.now = t.TS
	}
	validFrom := e.win.Spec().ValidFrom(e.now)

	for _, id := range e.treesOf(t.Src) {
		tx := &e.trees[id]
		ns := &tx.ns
		// Lines 2–8: find tree edges matching the deleted edge and mark
		// their subtrees as expired. A tree edge w.r.t. Tx (Definition 13):
		// the target node exists and hangs under the source node (the root
		// hangs under itself).
		marked := e.sc.slots[:0]
		for _, tr := range e.a.ByLabel[t.Label] {
			c := ns.lookup(mkNodeKey(t.Dst, tr.To))
			if c > rootSlot && ns.nodes[ns.nodes[c].parent].key == mkNodeKey(t.Src, tr.From) {
				marked = e.markSubtree(tx, c, validFrom, marked)
			}
		}
		e.sc.slots = marked[:0]
		if len(marked) == 0 {
			continue // deleting a non-tree edge leaves Tx unchanged
		}
		// Line 9: ExpiryRAPQ over the marked nodes only.
		e.reconnect(tx, marked, validFrom)
		e.dropIfRootOnly(tx)
	}
}

// offer is a pending reconnection of a delete-marked node: the path
// timestamp ts through the settled or unmarked node in slot parent. seq
// is the push order, which breaks ties first in, first out.
type offer struct {
	ts, seq      int64
	slot, parent int32
}

// reconnect is ExpiryRAPQ over the nodes a deletion marked (lines 2–9),
// done as a repair in place: a widest-path (max-min) Dijkstra over the
// marked set settles each marked node that still has an in-window root
// path exactly once, at its max-min timestamp, keeping its slot, key
// bucket and index entry; the nodes left unreachable are removed. Nothing
// outside the marked set can change — a deletion only removes paths — so
// nothing else is visited, and the stale nodes that lazy expiry leaves in
// the tree stay for the next window pass: the max-min closure says they
// have no in-window path to reconnect through. The repair emits no match:
// a node that reconnects had a path at least as fresh before the
// deletion, so its pair was live then.
func (e *RAPQ) reconnect(tx *tree, marked []int32, deadline int64) {
	ns, sc := &tx.ns, &e.sc
	seq := int64(0)
	// Seed: each marked node's best offer from an in-window in-edge whose
	// source node is neither marked nor stale.
	for _, slot := range marked {
		key := ns.nodes[slot].key
		t := key.state()
		best := offer{ts: deadline, slot: slot}
		sc.in = e.g.AppendInWhere(e.epoch, key.vertex(), e.inWant[t], deadline, sc.in[:0])
		for _, he := range sc.in {
			if he.TS <= best.ts {
				continue // its offer is at most he.TS, and only a better one wins
			}
			for _, s := range e.rev[he.L][t] {
				pslot := ns.lookup(mkNodeKey(he.V, s))
				if pslot < 0 {
					continue
				}
				if ts := min(he.TS, ns.nodes[pslot].ts); ts > best.ts {
					best.ts, best.parent = ts, pslot
				}
			}
		}
		if best.ts > deadline {
			best.seq, seq = seq, seq+1
			sc.push(best)
		}
	}
	// Settle: the best pending offer is final for its node, since every
	// other path to it runs through a node whose offer is no better.
	calls := int64(0)
	for len(sc.heap) > 0 {
		o := sc.pop()
		if ns.nodes[o.slot].ts > deadline {
			continue // settled by a better offer
		}
		calls++
		ns.detach(o.slot)
		ns.nodes[o.slot].ts, ns.nodes[o.slot].parent = o.ts, o.parent
		ns.attach(o.parent, o.slot)
		v, t := ns.nodes[o.slot].key.vertex(), ns.nodes[o.slot].key.state()
		sc.out = e.g.AppendOutWhere(e.epoch, v, e.outWant[t], deadline, sc.out[:0])
		for _, he := range sc.out {
			if cs := ns.lookup(mkNodeKey(he.V, e.a.Trans[t][he.L])); cs >= 0 && ns.nodes[cs].ts <= deadline {
				sc.push(offer{ts: min(o.ts, he.TS), seq: seq, slot: cs, parent: o.slot})
				seq++
			}
		}
	}
	e.stats.InsertCalls += calls
	// Remove what stayed cut off. Settled nodes hang under settled or
	// unmarked ones, so every child of a removed node is removed here too.
	for _, slot := range marked {
		if ns.nodes[slot].ts <= deadline {
			e.remove(tx, slot)
		}
	}
	// Lines 11–15, canonicalized.
	e.endPass(tx, deadline, true)
}

// before orders the offer heap: the widest path first, ties first in,
// first out. The tie order shapes the repaired tree (which later
// deletions cut through), never its timestamps.
func (o offer) before(p offer) bool {
	return o.ts > p.ts || o.ts == p.ts && o.seq < p.seq
}

// push adds an offer to the heap in sc.heap: a hand-written sift, since
// container/heap boxes every element through its interface.
func (sc *scratch) push(o offer) {
	h := append(sc.heap, o)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.before(h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i] = o
	sc.heap = h
}

// pop removes and returns the first offer of the heap.
func (sc *scratch) pop() offer {
	h := sc.heap
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(h[c]) {
				c++
			}
			if !h[c].before(last) {
				break
			}
			h[i], i = h[c], c
		}
		h[i] = last
	}
	sc.heap = h
	return top
}

var (
	_ Engine       = (*RAPQ)(nil)
	_ MemberEngine = (*RAPQ)(nil)
)
