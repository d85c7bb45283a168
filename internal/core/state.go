package core

import (
	"cmp"
	"fmt"
	"slices"

	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// This file defines the exported, pointer-free state representations of
// the engines' Δ indexes, used by the persistence subsystem
// (internal/persist) to checkpoint an engine and by recovery to rebuild
// one. A state captures everything that is a function of the stream
// prefix: the spanning trees, the stream clock, the window-manager
// position and the statistics counters. The snapshot graph is NOT part
// of an engine state — it is owned by the coordinator in multi-query
// setups and serialized once (see MultiState); a standalone engine's
// state pairs with SnapshotEdges(Graph()).
//
// Restore is only legal on a freshly constructed engine (same automaton,
// same window spec); restoring rebuilds the derived structures (children
// sets, key tables, inverted indexes) from the flat node lists.

// TreeNodeState is one non-root node of a RAPQ spanning tree: the
// (vertex, state) pair, its path timestamp, and its parent's key.
type TreeNodeState struct {
	V       stream.VertexID
	S       int32
	TS      int64
	ParentV stream.VertexID
	ParentS int32
}

// SupportCount is one entry of a tree's result-support index: N
// final-state witness nodes for result vertex V. Support drives the
// canonical match/invalidation decisions — a pair is retracted exactly
// when its last in-window witness goes — so it is checkpointed with the
// tree and cross-checked against the node list on restore rather than
// silently recomputed.
type SupportCount struct {
	V stream.VertexID
	N int32
}

// TreeState is one RAPQ spanning tree Tx. The root node (Root, s0) is
// implicit; Nodes holds everything else in deterministic (v,s) order.
// Support holds the per-vertex final-witness counts in ascending vertex
// order; it is derivable from Nodes and verified against them on
// restore (a mismatch means a corrupt checkpoint).
type TreeState struct {
	Root    stream.VertexID
	Nodes   []TreeNodeState
	Support []SupportCount
}

// RAPQState is the checkpointable state of a RAPQ engine, excluding
// the snapshot graph.
type RAPQState struct {
	Now      int64
	Deadline int64
	Win      window.State
	Stats    Stats // the counters; sizes are recomputed on restore
	Self     SelfPairs
	Trees    []TreeState
}

// SnapshotState captures the engine's Δ index and clocks. The output is
// deterministic: trees sorted by root, nodes sorted by (vertex, state).
func (e *RAPQ) SnapshotState() *RAPQState {
	st := &RAPQState{
		Now:      e.now,
		Deadline: e.deadline,
		Win:      e.win.State(),
		Stats:    e.stats,
		Self:     e.self,
	}
	for _, id := range e.byRoot(e.allTrees()) {
		tx := &e.trees[id]
		ns := &tx.ns
		ts := TreeState{Root: tx.root, Nodes: make([]TreeNodeState, 0, ns.size()-1)}
		keys := make([]nodeKey, 0, ns.size())
		for slot := rootSlot + 1; slot < int32(len(ns.nodes)); slot++ {
			if ns.live(slot) {
				keys = append(keys, ns.nodes[slot].key)
			}
		}
		slices.Sort(keys)
		for _, key := range keys {
			slot := ns.lookup(key)
			pk := ns.nodes[ns.nodes[slot].parent].key
			ts.Nodes = append(ts.Nodes, TreeNodeState{
				V: key.vertex(), S: key.state(), TS: ns.nodes[slot].ts,
				ParentV: pk.vertex(), ParentS: pk.state(),
			})
		}
		ts.Support = e.supportOf(ts.Nodes)
		st.Trees = append(st.Trees, ts)
	}
	return st
}

// supportOf counts the final-state witnesses of each vertex in a tree's
// non-root node list, in ascending vertex order (nodes is sorted by
// vertex).
func (e *RAPQ) supportOf(nodes []TreeNodeState) []SupportCount {
	var out []SupportCount
	for _, n := range nodes {
		if !e.a.Final[n.S] {
			continue
		}
		if k := len(out) - 1; k >= 0 && out[k].V == n.V {
			out[k].N++
		} else {
			out = append(out, SupportCount{V: n.V, N: 1})
		}
	}
	return out
}

// RestoreState rebuilds the Δ index from a snapshot. The engine must be
// freshly constructed with the same bound automaton and window spec; the
// snapshot graph is restored separately by the caller. Trees get their
// ids in snapshot order, which is ascending by root.
func (e *RAPQ) RestoreState(st *RAPQState) error {
	if e.stats.TuplesSeen != 0 || len(e.trees) != 0 {
		return fmt.Errorf("core: RestoreState on a non-fresh RAPQ engine")
	}
	e.restoreClocks(st)
	for _, ts := range st.Trees {
		tx := e.rootedTree(ts.Root)
		store := &tx.ns
		// First pass: materialize every node (parent slots resolve in
		// the second pass, once every node has one).
		for _, n := range ts.Nodes {
			key := mkNodeKey(n.V, n.S)
			if store.lookup(key) >= 0 {
				return fmt.Errorf("core: restore: duplicate node (%d,%d) in tree %d", n.V, n.S, ts.Root)
			}
			slot := store.alloc(key, n.TS, 0, e.park)
			store.nodes[slot].parent = slot // placeholder until linked below
			e.inv.add(n.V, tx.id, n.S, slot)
		}
		// Second pass: link children and validate parents.
		for _, n := range ts.Nodes {
			slot := store.lookup(mkNodeKey(n.V, n.S))
			pslot := store.lookup(mkNodeKey(n.ParentV, n.ParentS))
			if pslot < 0 {
				return fmt.Errorf("core: restore: node (%d,%d) in tree %d has missing parent (%d,%d)",
					n.V, n.S, ts.Root, n.ParentV, n.ParentS)
			}
			store.nodes[slot].parent = pslot
			store.attach(pslot, slot)
		}
		if got := e.supportOf(ts.Nodes); !slices.Equal(got, ts.Support) {
			return fmt.Errorf("core: restore: tree %d support %v, nodes imply %v", ts.Root, ts.Support, got)
		}
	}
	return nil
}

// restoreClocks sets the engine's clocks and counters from st.
func (e *RAPQ) restoreClocks(st *RAPQState) {
	e.now = st.Now
	e.deadline = st.Deadline
	e.win.SetState(st.Win)
	e.stats = st.Stats
	e.self = st.Self
}

// RestoreFromGraph rebuilds a freshly constructed engine from a snapshot
// whose trees it cannot read, because they number the states of
// another automaton, and from the window content of g, which the
// caller has restored: the Δ index is bootstrapped from g
// (BootstrapFromGraph, emitting nothing), then the clocks and counters
// are st's. Its later emissions are those of an engine restored from
// its own state, as with a query registered mid-stream.
func (e *RAPQ) RestoreFromGraph(st *RAPQState, g *graph.Graph) error {
	if e.stats.TuplesSeen != 0 || len(e.trees) != 0 {
		return fmt.Errorf("core: RestoreFromGraph on a non-fresh RAPQ engine")
	}
	sink := e.sink
	e.sink = discardSink{}
	e.BootstrapFromGraph(g)
	e.sink = sink
	e.restoreClocks(st)
	return nil
}

// MultiState is the checkpointable state of the multi-query coordinator
// (shard.Engine): the shared snapshot graph, the shared window clock,
// and each Δ-index group's state. Members holds one state per *group*
// (ordered by each group's lowest live subscriber index) and
// MemberGroup records, for each live query in registration order, which
// group it subscribes to. The coordinator groups queries by automaton,
// so equivalent queries share one state; files written with sharing
// switched off split such a class over several states, and restore
// collapses it into one group (shard.Engine.RestoreState).
type MultiState struct {
	Now     int64
	Seen    int64
	Dropped int64
	Win     window.State
	Edges   []graph.Edge
	Members []*RAPQState

	// Registration state: whether the graph stores every label. The
	// shard coordinator writes Retain true; false only occurs in files
	// written by older coordinators, which dropped the labels no query
	// read (and in the checkpoints of an engine recovered from one): such
	// a state recovers with registration closed. A member registered
	// mid-stream needs nothing more: the window's edges bootstrap it
	// (RAPQ.BootstrapFromGraph).
	Retain bool

	// Query-sharing state (snapshot format v4): the live-query → group
	// mapping and the relevance-filter counters.
	MemberGroup    []int
	Dispatches     int64
	RelevanceSkips int64

	// WithoutEmptyWord (snapshot format v5) reports that every query
	// whose start state is its only final state was evaluated as
	// L \ {ε} (GroupBinding), so each state is numbered for the
	// automaton its group evaluates today. Older files leave it unset:
	// there such a query's state is numbered for its own automaton, and
	// the coordinator restores its group from another subscriber's state,
	// or rebuilds it from the window.
	WithoutEmptyWord bool
}

// SnapshotEdges returns the graph's live edges sorted by (TS, Src, Dst,
// Label). Re-inserting them in this order into a fresh graph rebuilds an
// expiry FIFO equivalent to the original (stream timestamps are
// non-decreasing, so arrival order and timestamp order agree up to ties,
// and expiry treats a tie-group atomically).
func SnapshotEdges(g *graph.Graph) []graph.Edge {
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	slices.SortFunc(edges, compareEdges)
	return edges
}

// compareEdges orders edges by (TS, Src, Dst, Label).
func compareEdges(a, b graph.Edge) int {
	return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Src, b.Src),
		cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Label, b.Label))
}

// RestoreEdges inserts snapshot edges into a fresh graph in order.
func RestoreEdges(g *graph.Graph, edges []graph.Edge) error {
	if g.NumEdges() != 0 {
		return fmt.Errorf("core: RestoreEdges on a non-empty graph")
	}
	for _, ed := range edges {
		g.Insert(ed.Src, ed.Dst, ed.Label, ed.TS)
	}
	return nil
}
