package core

import (
	"cmp"
	"math"
	"slices"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// tree is one spanning tree Tx of the Δ index, rooted at (x, s0). Its
// nodes live in a slot store, one 32-byte record per node (tree_store.go),
// and are addressed by slot on the hot paths. The key index over the slots is
// what the path semantics disagree on: RAPQ, where Lemma 1 allows a
// (vertex,state) key at most one node, uses the flat table of ns; RSPQ
// leaves that empty, works on the embedded slotStore and lists each
// key's instances in inst (rspq.go). Which vertices a tree holds, and in
// which states, the engine's inverted index records. A tree is held by
// value in delta.trees, at index id; a free slot there is the zero tree,
// which has no nodes.
type tree struct {
	root stream.VertexID
	id   int32
	ns   treeStore
	inst map[nodeKey]instances
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

	// trees is Δ, one spanning tree per slot, indexed by tree id: the
	// inverted index's entries name trees by id, and the row of a root
	// vertex names its tree (invRow.tree). A dropped tree's slot is
	// zeroed and its id goes on freeIDs, which ensureTree reuses last
	// freed first. A *tree into the slice is valid until the next
	// ensureTree, which may grow it; nothing holds one across a creation.
	trees   []tree
	freeIDs []int32
	inv     invIndex // vertex -> its nodes (RAPQ) or keys (RSPQ) in every tree

	// rootEnt is the slot the index entry of a tree's root names:
	// rootSlot for RAPQ's per-node entries, noSlot for RSPQ's per-key
	// ones.
	rootEnt int32

	// rev[label] lists transitions grouped by target state for expiry
	// reconnection: rev[label][t] = states s with δ(s,label)=t.
	rev [][][]int32

	// Traversal label filters (graph.AppendOutWhere), one per state; a
	// label bound after the member is past their masks' end, so
	// unwanted. outWant[s] wants l iff δ(s,l) exists, inWant[t] iff
	// some δ(s,l) = t. Each also lists its labels, so a walk of a hub's
	// slab reads only the cells of those labels.
	outWant, inWant []graph.Labels

	// epoch is the graph epoch this engine's traversals read at (the
	// explicit epoch handle of the versioned snapshot graph). A
	// coordinator sets it per tuple via SetReadEpoch; standalone it
	// stays 0, matching the private graph's never-advanced epoch.
	epoch graph.Epoch

	now   int64 // largest timestamp seen; math.MinInt64 before the first
	stats Stats
	self  SelfPairs // the (x, x) records among stats.Results and stats.Invalidations

	// sc is the working set of Δ maintenance; idScratch is the
	// per-tuple candidate-tree snapshot of RSPQ routing and of Algorithm
	// Delete, taken before any tree is touched.
	sc        scratch
	idScratch []int32

	// park lends tree arrays between the engines of one coordinator
	// shard (RAPQ.SetParking); nil for a standalone engine.
	park *Parking

	// The embedding engine's policy, installed by its constructor: what
	// Process drives, and whether a result pair has an in-window witness
	// (a question for the engine's key index).
	ops  deltaOps
	live func(tx *tree, v stream.VertexID, validFrom int64) bool
}

// deltaOps is the engine's Δ maintenance that the tuple routing of
// Process drives. The snapshot graph has already been updated when one
// of them runs.
type deltaOps struct {
	insert func(t stream.Tuple)
	del    func(t stream.Tuple)
	expire func(deadline int64)
}

// scratch is the engine's reused working set of Δ maintenance: the
// explicit DFS stack of the insert cascade, the index-row copies of
// RAPQ's routing, the adjacency copies of the filtered traversal
// (graph.AppendOutWhere/AppendInWhere), RSPQ's expiry candidate list,
// the slots a deletion marked, the offer heap of RAPQ's repair and the
// record of the open pass.
type scratch struct {
	stack    []insertOp
	src, dst []invEnt
	out      []graph.HalfEdge
	in       []graph.HalfEdge
	cands    []nodeKey
	slots    []int32
	heap     []offer

	// pre and noted are the record of the one expiry/delete pass open on
	// this scratch (empty between passes): for each vertex about to lose
	// a final witness, whether the pair (root, v) was live when the pass
	// started — captured before any pruning (for delete-marked subtrees:
	// before the timestamps are overwritten). It suppresses re-match
	// emissions for pairs the pass merely cuts and reconnects, and at the
	// end of a delete the pairs recorded live that did not come back live
	// are exactly the canonical invalidation set. noted lists the
	// recorded vertices in the order they were noted, so closing a pass
	// costs what the pass touched.
	pre   map[stream.VertexID]bool
	noted []stream.VertexID
}

// wasLive reports whether the pass open on the scratch, if any, recorded
// the pair of v as live at its start. Outside a pass it costs one length
// test.
func (sc *scratch) wasLive(v stream.VertexID) bool {
	return len(sc.pre) > 0 && sc.pre[v]
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
	outMask, inMask := make([][]bool, a.K), make([][]bool, a.K)
	for s := range a.K {
		outMask[s], inMask[s] = make([]bool, len(a.ByLabel)), make([]bool, len(a.ByLabel))
	}
	for l, trans := range a.ByLabel {
		if len(trans) == 0 {
			continue
		}
		byTarget := make([][]int32, a.K)
		for _, tr := range trans {
			byTarget[tr.To] = append(byTarget[tr.To], tr.From)
			outMask[tr.From][l], inMask[tr.To][l] = true, true
		}
		d.rev[l] = byTarget
	}
	d.outWant, d.inWant = make([]graph.Labels, a.K), make([]graph.Labels, a.K)
	for s := range a.K {
		d.outWant[s], d.inWant[s] = graph.NewLabels(outMask[s]), graph.NewLabels(inMask[s])
	}
	d.a = a
	d.now = math.MinInt64
	d.g = graph.New()
	d.win = window.NewManager(spec)
	d.sink = cfg.sink
	d.sc.pre = make(map[stream.VertexID]bool)
	return cfg
}

// Graph implements Engine.
func (d *delta) Graph() *graph.Graph { return d.g }

// SelfPairs returns the (x, x) records among the emitted ones.
func (d *delta) SelfPairs() SelfPairs { return d.self }

// Stats implements Engine.
func (d *delta) Stats() Stats {
	s := d.stats
	s.Trees = len(d.trees) - len(d.freeIDs)
	s.Nodes = 0
	for i := range d.trees {
		s.Nodes += d.trees[i].ns.size()
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
func (d *delta) Process(t stream.Tuple) {
	d.stats.TuplesSeen++
	if t.TS > d.now {
		d.now = t.TS
	}
	// Lazy expiration at slide boundaries (§2: eager evaluation, lazy
	// expiration).
	if deadline, due := d.win.Observe(t.TS); due {
		d.g.Expire(deadline, nil)
		d.ops.expire(deadline)
	}
	// Drop tuples whose label is outside ΣQ: they can never be part of
	// a resulting path (§5.2).
	if !d.a.Relevant(int(t.Label)) {
		d.stats.TuplesDropped++
		return
	}
	if t.Op == stream.Delete {
		if d.g.Delete(t.Key()) {
			d.ops.del(t)
		}
		return
	}
	d.g.Insert(t.Src, t.Dst, t.Label, t.TS)
	d.ops.insert(t)
}

// ensureTree materializes Tx with its root node (x, s0) in rootSlot (Δ
// conceptually holds a tree for every vertex; only those that can grow
// past their root are represented), and the root in the inverted index,
// whose row of x names the tree. The caller enters the root of a new
// tree into its key index. The pointer is valid until the next
// ensureTree.
func (d *delta) ensureTree(x stream.VertexID) *tree {
	if tx := d.treeOf(x); tx != nil {
		return tx
	}
	var id int32
	if n := len(d.freeIDs); n > 0 {
		id, d.freeIDs = d.freeIDs[n-1], d.freeIDs[:n-1]
	} else {
		id = int32(len(d.trees))
		d.trees = append(d.trees, tree{})
	}
	tx := &d.trees[id]
	tx.root, tx.id = x, id
	// A store's first slot is rootSlot, so the root becomes its own
	// parent (self-sentinel). A start state that is also final means the
	// empty path matches; RPQ answers are conventionally over paths of
	// length ≥ 1, and neither the paper nor the engines report (x,x) via ε.
	tx.ns.slotStore.alloc(mkNodeKey(x, d.a.Start), rootTS, rootSlot, d.park)
	d.inv.add(x, id, d.a.Start, d.rootEnt).tree = id + 1
	return tx
}

// treeOf returns the tree rooted at x, or nil; valid until the next
// ensureTree.
func (d *delta) treeOf(x stream.VertexID) *tree {
	if id := d.inv.rootTree(x); id >= 0 {
		return &d.trees[id]
	}
	return nil
}

// treesOf snapshots the ids of the trees containing v, ascending.
func (d *delta) treesOf(v stream.VertexID) []int32 {
	d.idScratch = d.inv.appendTrees(v, d.idScratch[:0])
	return d.idScratch
}

// byRoot sorts tree ids by their trees' roots: the canonical order of
// RSPQ's visits, which share the Extend budget across trees.
func (d *delta) byRoot(ids []int32) []int32 {
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(d.trees[a].root, d.trees[b].root) })
	return ids
}

// allTrees snapshots the ids of every tree, ascending.
func (d *delta) allTrees() []int32 {
	ids := d.idScratch[:0]
	for i := range d.trees {
		if len(d.trees[i].ns.nodes) > 0 {
			ids = append(ids, int32(i))
		}
	}
	d.idScratch = ids
	return ids
}

// emit reports a result pair.
func (d *delta) emit(x, v stream.VertexID) {
	d.stats.Results++
	if x == v {
		d.self.Results++
	}
	d.sink.OnMatch(Match{From: x, To: v, TS: d.now})
}

// dropIfRootOnly garbage-collects a tree that shrank to its root: no
// valid start edge remains, so Δ need not represent it. Its arrays go to
// the parking, its slot is zeroed and its id freed for the next tree;
// its caller must not read it afterwards.
func (d *delta) dropIfRootOnly(tx *tree) {
	if tx.ns.size() == 1 {
		if r := d.inv.drop(tx.root, tx.id, d.a.Start, d.rootEnt); r != nil {
			r.tree = 0
		}
		d.park.drop(&tx.ns)
		d.freeIDs = append(d.freeIDs, tx.id)
		*tx = tree{}
	}
}

// notePreLive records, the first time a pass is about to take a final
// witness of some vertex away, whether that vertex's pair was live at
// validFrom. Call it while the witness timestamps are still intact.
func (d *delta) notePreLive(tx *tree, slot int32, validFrom int64) {
	key := tx.ns.nodes[slot].key
	if !d.a.Final[key.state()] {
		return
	}
	if _, ok := d.sc.pre[key.vertex()]; ok {
		return
	}
	d.sc.pre[key.vertex()] = d.live(tx, key.vertex(), validFrom)
	d.sc.noted = append(d.sc.noted, key.vertex())
}

// markSubtree sets the timestamps of the subtree rooted at slot to -∞,
// marking every node in it as expired (Algorithm Delete lines 4–7), and
// appends the newly marked slots to marked, breadth-first: the list is
// its own worklist. A node already marked is skipped with its subtree,
// which is marked too — a deleted label with two transitions can cut
// nested subtrees — so no slot is listed twice. The pre-deletion
// liveness of each final witness is recorded first, so the invalidation
// pass decides against the window state before the deletion rather than
// the clobbered one.
func (d *delta) markSubtree(tx *tree, slot int32, validFrom int64, marked []int32) []int32 {
	ns := &tx.ns
	if ns.nodes[slot].ts == expiredTS {
		return marked
	}
	i := len(marked)
	for marked = append(marked, slot); i < len(marked); i++ {
		s := marked[i]
		d.notePreLive(tx, s, validFrom)
		ns.nodes[s].ts = expiredTS
		for c := ns.nodes[s].firstChild; c >= 0; c = ns.nodes[c].nextSib {
			if ns.nodes[c].ts != expiredTS {
				marked = append(marked, c)
			}
		}
	}
	return marked
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
func (d *delta) endPass(tx *tree, deadline int64, invalidate bool) {
	sc := &d.sc
	was := sc.noted[:0]
	for _, v := range sc.noted {
		if sc.pre[v] && invalidate {
			was = append(was, v)
		}
	}
	sc.noted = was[:0]
	clear(sc.pre)
	slices.Sort(was)
	for _, v := range was {
		if d.live(tx, v, deadline) {
			continue
		}
		d.stats.Invalidations++
		if v == tx.root {
			d.self.Invalidations++
		}
		d.sink.OnInvalidate(Match{From: tx.root, To: v, TS: d.now})
	}
}
