package core

import (
	"slices"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// tree is one spanning tree Tx of the Δ index, rooted at (x, s0). Its
// nodes live in a struct-of-arrays slot store (tree_store.go) and are
// addressed by slot on the hot paths. The key index over the slots is
// what the path semantics disagree on: RAPQ, where Lemma 1 allows a
// (vertex,state) key at most one node, uses the flat table of ns; RSPQ
// leaves that empty, works on the embedded slotStore and lists each
// key's instances in inst (rspq.go).
type tree struct {
	root stream.VertexID
	ns   treeStore
	inst map[nodeKey]instances

	// verts is the per-vertex census: the nodes of each vertex (a vertex
	// is in the inverted index while it has one) and, as the record's
	// support, the final-state witness nodes of each result vertex (the
	// root node is excluded: it only witnesses the empty path). A result
	// pair (root, v) is live iff one of the counted witnesses is inside
	// the window; no record or support == 0 is the O(1) fast path for
	// "not live". Unlike the incidental tree shape, the witness set is a
	// pure function of the stream prefix, so every emission decision made
	// through it is canonical.
	verts vertexTable
}

// delta is the Δ substrate both engines maintain (§3, §4): the snapshot
// graph and window clock, the spanning trees with their inverted index,
// and what does not depend on the path semantics — tuple routing, tree
// creation and collection, the bookkeeping of a node removal, Algorithm
// Delete's subtree marking and the liveness record behind match
// suppression and invalidation. RAPQ and RSPQ embed it and add their
// policy: how a tree grows (Insert / Extend), how an expiry pass
// reconnects, and the key index that goes with each.
type delta struct {
	a    *automaton.Bound
	g    *graph.Graph
	win  *window.Manager
	sink Sink

	trees map[stream.VertexID]*tree // Δ: root vertex -> spanning tree
	inv   invIndex                  // vertex -> roots of trees containing it

	// rev[label] lists transitions grouped by target state for expiry
	// reconnection: rev[label][t] = states s with δ(s,label)=t.
	rev [][][]int32

	// finals lists the accepting states once, for the liveness scans.
	finals []int32

	// epoch is the graph epoch this engine's traversals read at (the
	// explicit epoch handle of the versioned snapshot graph). A
	// coordinator sets it per sub-batch via SetReadEpoch; standalone it
	// stays 0, matching the private graph's never-advanced epoch.
	epoch graph.Epoch

	now   int64 // largest timestamp seen
	stats Stats

	// sc is the working set of Δ maintenance on the caller's goroutine;
	// rootScratch is the per-tuple candidate-root snapshot, taken before
	// any tree is touched.
	sc          scratch
	rootScratch []stream.VertexID

	// The embedding engine's policy, installed by its constructor: what
	// Process drives, and whether a result pair has an in-window witness
	// (a question for the engine's key index).
	ops  deltaOps
	live func(tx *tree, v stream.VertexID, validFrom int64) bool
}

// deltaOps is what the tuple routing of process drives: an engine's own
// Δ maintenance, or a fan-out over it (ParallelRAPQ). The snapshot graph
// has already been updated when one of them runs.
type deltaOps struct {
	insert func(t stream.Tuple)
	del    func(t stream.Tuple)
	expire func(deadline int64)
}

// scratch is the working set one goroutine mutates while it maintains
// Δ: the explicit DFS stack of the insert cascade, the adjacency copies
// of the buffer-based traversal API (graph.AppendOutAt/AppendInAt), the
// expiry candidate list and the subtree-marking stack. The maintenance
// algorithms take it explicitly, so they exist once whether one
// goroutine runs them (delta.sc) or a fan-out hands each worker its own
// (ParallelRAPQ).
//
// Everything else the algorithms write outside the tree they were
// handed — the sink, the statistics, the inverted index — is shared
// engine state. The sequential engines apply those effects at once; a
// fan-out sets deferred, and they accumulate here until the driver
// merges them on its own goroutine after the barrier. Nothing reads the
// inverted index during a fan-out (the candidate roots are snapshotted
// before it), so deferring its writes is unobservable.
type scratch struct {
	stack []insertOp
	out   []graph.HalfEdge
	in    []graph.HalfEdge
	cands []nodeKey
	slots []int32

	// pre and noted are the record of the one expiry/delete pass open on
	// this scratch (empty between passes): for each vertex about to lose
	// a final witness, whether the pair (root, v) was live when the pass
	// started — captured before any pruning (for delete-marked subtrees:
	// before the timestamps are overwritten), as support 1 or 0 of its
	// record. It suppresses re-match emissions for pairs the pass merely
	// cuts and reconnects, and at the end of a delete the pairs recorded
	// live that did not come back live are exactly the canonical
	// invalidation set. noted lists the recorded vertices, so closing a
	// pass costs what the pass touched.
	pre   vertexTable
	noted []stream.VertexID

	deferred    bool
	matches     []Match
	insertCalls int64
	invOps      []invOp
}

// wasLive reports whether the pass open on the scratch, if any, recorded
// the pair of v as live at its start.
func (sc *scratch) wasLive(v stream.VertexID) bool {
	r := sc.pre.find(v)
	return r != nil && r.support > 0
}

// init sets up the substrate for the bound automaton and window
// specification and returns the resolved options.
func (d *delta) init(a *automaton.Bound, spec window.Spec, opts []Option) config {
	cfg := config{spec: spec, sink: discardSink{}}
	for _, o := range opts {
		o(&cfg)
	}
	if a.K > MaxStates {
		panic("core: automaton exceeds the node-key state space; streamrpq.Compile rejects such patterns")
	}
	d.rev = make([][][]int32, len(a.ByLabel))
	for l, trans := range a.ByLabel {
		if len(trans) == 0 {
			continue
		}
		byTarget := make([][]int32, a.K)
		for _, tr := range trans {
			byTarget[tr.To] = append(byTarget[tr.To], tr.From)
		}
		d.rev[l] = byTarget
	}
	for s := int32(0); s < int32(a.K); s++ {
		if a.Final[s] {
			d.finals = append(d.finals, s)
		}
	}
	d.a = a
	d.g = graph.New()
	d.win = window.NewManager(spec)
	d.sink = cfg.sink
	d.trees = make(map[stream.VertexID]*tree)
	return cfg
}

// Graph implements Engine.
func (d *delta) Graph() *graph.Graph { return d.g }

// Stats implements Engine.
func (d *delta) Stats() Stats {
	s := d.stats
	s.Trees = len(d.trees)
	s.Nodes = 0
	for _, tx := range d.trees {
		s.Nodes += tx.ns.size()
	}
	s.Edges = d.g.NumEdges()
	s.Vertices = d.g.NumVertices()
	return s
}

// Now returns the largest stream timestamp processed so far.
func (d *delta) Now() int64 { return d.now }

// Process implements Engine: the engine's insert algorithm for positive
// tuples, Algorithm Delete for negative ones, and its expiry algorithm
// at slide boundaries.
func (d *delta) Process(t stream.Tuple) { d.process(t, &d.ops) }

func (d *delta) process(t stream.Tuple, ops *deltaOps) {
	d.stats.TuplesSeen++
	if t.TS > d.now {
		d.now = t.TS
	}
	// Lazy expiration at slide boundaries (§2: eager evaluation, lazy
	// expiration).
	if deadline, due := d.win.Observe(t.TS); due {
		d.g.Expire(deadline, nil)
		ops.expire(deadline)
	}
	// Drop tuples whose label is outside ΣQ: they can never be part of
	// a resulting path (§5.2).
	if !d.a.Relevant(int(t.Label)) {
		d.stats.TuplesDropped++
		return
	}
	if t.Op == stream.Delete {
		if d.g.Delete(t.Key()) {
			ops.del(t)
		}
		return
	}
	d.g.Insert(t.Src, t.Dst, t.Label, t.TS)
	ops.insert(t)
}

// ensureTree materializes Tx with its root node (x, s0) in rootSlot (Δ
// conceptually holds a tree for every vertex; only those that can grow
// past their root are represented). The caller enters the root of a new
// tree into its key index.
func (d *delta) ensureTree(x stream.VertexID) *tree {
	if tx, ok := d.trees[x]; ok {
		return tx
	}
	tx := &tree{root: x}
	// A store's first slot is rootSlot, so the root becomes its own
	// parent (self-sentinel). A start state that is also final means the
	// empty path matches; RPQ answers are conventionally over paths of
	// length ≥ 1, and neither the paper nor the engines report (x,x) via ε.
	tx.ns.slotStore.alloc(mkNodeKey(x, d.a.Start), rootTS, rootSlot)
	tx.verts.inc(x, false)
	d.trees[x] = tx
	d.inv.add(x, x)
	return tx
}

// rootsOf snapshots the roots of the trees containing v, ascending.
func (d *delta) rootsOf(v stream.VertexID) []stream.VertexID {
	d.rootScratch = d.inv.appendRoots(v, d.rootScratch[:0])
	return d.rootScratch
}

// allRoots snapshots the roots of every tree, ascending: the order every
// all-tree pass visits them in, so that no emission order depends on map
// iteration.
func (d *delta) allRoots() []stream.VertexID {
	roots := d.rootScratch[:0]
	for root := range d.trees {
		roots = append(roots, root)
	}
	slices.Sort(roots)
	d.rootScratch = roots
	return roots
}

// noteInv records that the tree rooted at root gained (or, with drop,
// lost) its last instance of v.
func (d *delta) noteInv(sc *scratch, v, root stream.VertexID, drop bool) {
	op := invOp{v: v, root: root, drop: drop}
	if sc.deferred {
		sc.invOps = append(sc.invOps, op)
		return
	}
	d.inv.apply(op)
}

// emit reports a result pair.
func (d *delta) emit(sc *scratch, x, v stream.VertexID) {
	m := Match{From: x, To: v, TS: d.now}
	if sc.deferred {
		sc.matches = append(sc.matches, m)
		return
	}
	d.stats.Results++
	d.sink.OnMatch(m)
}

// unlink takes the node in slot out of its parent's child list and out
// of the per-vertex witness support counts and the inverted index. The
// engine then drops it from its key index and releases the slot.
func (d *delta) unlink(sc *scratch, tx *tree, slot int32) {
	key := tx.ns.keys[slot]
	v := key.vertex()
	tx.ns.detach(slot)
	if tx.verts.dec(v, d.a.Final[key.state()] && slot != rootSlot) {
		d.noteInv(sc, v, tx.root, true)
	}
}

// dropIfRootOnly garbage-collects a tree that shrank to its root: no
// valid start edge remains, so Δ need not represent it.
func (d *delta) dropIfRootOnly(tx *tree) {
	if tx.ns.size() == 1 {
		d.unlink(&d.sc, tx, rootSlot)
		delete(d.trees, tx.root)
	}
}

// notePreLive records, the first time a pass is about to take a final
// witness of some vertex away, whether that vertex's pair was live at
// validFrom. Call it while the witness timestamps are still intact.
func (d *delta) notePreLive(sc *scratch, tx *tree, slot int32, validFrom int64) {
	key := tx.ns.keys[slot]
	if !d.a.Final[key.state()] || sc.pre.find(key.vertex()) != nil {
		return
	}
	sc.pre.inc(key.vertex(), d.live(tx, key.vertex(), validFrom))
	sc.noted = append(sc.noted, key.vertex())
}

// markSubtree sets the timestamps of the subtree rooted at slot to -∞,
// marking every node in it as expired (Algorithm Delete lines 4–7). The
// pre-deletion liveness of each final witness is recorded first, so the
// invalidation pass decides against the window state before the
// deletion rather than the clobbered one.
func (d *delta) markSubtree(sc *scratch, tx *tree, slot int32, validFrom int64) {
	ns := &tx.ns
	stack := append(sc.slots[:0], slot)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.notePreLive(sc, tx, s, validFrom)
		ns.ts[s] = expiredTS
		for c := ns.firstChild[s]; c >= 0; c = ns.nextSib[c] {
			stack = append(stack, c)
		}
	}
	sc.slots = stack[:0]
}

// endPass closes an expiry/delete pass over tx. With invalidate set
// (Algorithm Delete) it first retracts, in ascending vertex order, every
// pair that was live before the pass and has no in-window final witness
// after pruning + reconnection. The decision depends only on the
// canonical witness set, never on which nodes the incidental tree shape
// routed the deletion through — deleting a non-tree edge can never make
// a witness unreachable (the tree path would use the deleted edge too)
// — so the invalidation stream is a pure function of the input. Window
// expiry retracts nothing: results carry implicit window semantics.
func (d *delta) endPass(sc *scratch, tx *tree, deadline int64, invalidate bool) {
	was := sc.noted[:0]
	for _, v := range sc.noted {
		live := sc.wasLive(v)
		sc.pre.dec(v, live)
		if live && invalidate {
			was = append(was, v)
		}
	}
	sc.noted = was[:0]
	slices.Sort(was)
	for _, v := range was {
		if d.live(tx, v, deadline) {
			continue
		}
		d.stats.Invalidations++
		d.sink.OnInvalidate(Match{From: tx.root, To: v, TS: d.now})
	}
}
