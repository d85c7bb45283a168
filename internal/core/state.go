package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

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
// sets, vertex counts, inverted indexes) from the flat node lists.

// StatState is the restartable subset of Stats: the monotone counters
// that survive a checkpoint/recovery cycle so result numbering and
// throughput accounting stay continuous. Sizes (Trees, Nodes, Edges,
// Vertices) are recomputed, not stored.
type StatState struct {
	Results        int64
	Invalidations  int64
	TuplesSeen     int64
	TuplesDropped  int64
	ExpiryRuns     int64
	ExpiryTimeNS   int64
	InsertCalls    int64
	ConflictsFound int64
	Unmarkings     int64
}

func statStateOf(s Stats) StatState {
	return StatState{
		Results:        s.Results,
		Invalidations:  s.Invalidations,
		TuplesSeen:     s.TuplesSeen,
		TuplesDropped:  s.TuplesDropped,
		ExpiryRuns:     s.ExpiryRuns,
		ExpiryTimeNS:   int64(s.ExpiryTime),
		InsertCalls:    s.InsertCalls,
		ConflictsFound: s.ConflictsFound,
		Unmarkings:     s.Unmarkings,
	}
}

func (st StatState) apply(s *Stats) {
	s.Results = st.Results
	s.Invalidations = st.Invalidations
	s.TuplesSeen = st.TuplesSeen
	s.TuplesDropped = st.TuplesDropped
	s.ExpiryRuns = st.ExpiryRuns
	s.ExpiryTime = time.Duration(st.ExpiryTimeNS)
	s.InsertCalls = st.InsertCalls
	s.ConflictsFound = st.ConflictsFound
	s.Unmarkings = st.Unmarkings
}

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
	Stats    StatState
	Trees    []TreeState
}

// SnapshotState captures the engine's Δ index and clocks. The output is
// deterministic: trees sorted by root, nodes sorted by (vertex, state).
func (e *RAPQ) SnapshotState() *RAPQState {
	st := &RAPQState{
		Now:      e.now,
		Deadline: e.deadline,
		Win:      e.win.State(),
		Stats:    statStateOf(e.stats),
	}
	roots := make([]stream.VertexID, 0, len(e.trees))
	for root := range e.trees {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, root := range roots {
		tx := e.trees[root]
		ns := &tx.ns
		ts := TreeState{Root: root, Nodes: make([]TreeNodeState, 0, ns.size()-1)}
		keys := make([]nodeKey, 0, ns.size())
		for slot := rootSlot + 1; slot < int32(len(ns.keys)); slot++ {
			if ns.live(slot) {
				keys = append(keys, ns.keys[slot])
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			slot := ns.lookup(key)
			pk := ns.keys[ns.parent[slot]]
			ts.Nodes = append(ts.Nodes, TreeNodeState{
				V: key.vertex(), S: key.state(), TS: ns.ts[slot],
				ParentV: pk.vertex(), ParentS: pk.state(),
			})
		}
		ts.Support = supportStateOf(&tx.verts)
		st.Trees = append(st.Trees, ts)
	}
	return st
}

// supportStateOf flattens a census's support counts in ascending vertex
// order.
func supportStateOf(verts *vertexTable) []SupportCount {
	var out []SupportCount
	for _, r := range verts.recs {
		if r.support > 0 {
			out = append(out, SupportCount{V: r.v, N: r.support})
		}
	}
	slices.SortFunc(out, func(a, b SupportCount) int { return cmp.Compare(a.V, b.V) })
	return out
}

// checkSupport verifies that the support counts rebuilt from a restored
// node list agree with the checkpointed ones.
func checkSupport(rebuilt *vertexTable, want []SupportCount, root stream.VertexID) error {
	if got := len(supportStateOf(rebuilt)); len(want) != got {
		return fmt.Errorf("core: restore: tree %d support has %d vertices, nodes imply %d",
			root, len(want), got)
	}
	for _, sc := range want {
		var n int32
		if r := rebuilt.find(sc.V); r != nil {
			n = r.support
		}
		if n != sc.N {
			return fmt.Errorf("core: restore: tree %d support[%d]=%d, nodes imply %d",
				root, sc.V, sc.N, n)
		}
	}
	return nil
}

// RestoreState rebuilds the Δ index from a snapshot. The engine must be
// freshly constructed with the same bound automaton and window spec; the
// snapshot graph is restored separately by the caller.
func (e *RAPQ) RestoreState(st *RAPQState) error {
	if e.stats.TuplesSeen != 0 || len(e.trees) != 0 {
		return fmt.Errorf("core: RestoreState on a non-fresh RAPQ engine")
	}
	e.now = st.Now
	e.deadline = st.Deadline
	e.win.SetState(st.Win)
	st.Stats.apply(&e.stats)
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
			slot := store.alloc(key, n.TS, 0)
			store.parent[slot] = slot // placeholder until linked below
			// Nodes never contains the root: every final node is a witness.
			if tx.verts.inc(n.V, e.a.Final[n.S]) {
				e.inv.add(n.V, tx.root)
			}
		}
		// Second pass: link children and validate parents.
		for _, n := range ts.Nodes {
			slot := store.lookup(mkNodeKey(n.V, n.S))
			pslot := store.lookup(mkNodeKey(n.ParentV, n.ParentS))
			if pslot < 0 {
				return fmt.Errorf("core: restore: node (%d,%d) in tree %d has missing parent (%d,%d)",
					n.V, n.S, ts.Root, n.ParentV, n.ParentS)
			}
			store.parent[slot] = pslot
			store.attach(pslot, slot)
		}
		if err := checkSupport(&tx.verts, ts.Support, ts.Root); err != nil {
			return err
		}
	}
	return nil
}

// MultiState is the checkpointable state of the multi-query coordinator
// (shard.Engine): the shared snapshot graph, the shared
// window clock, and each Δ-index group's state. With query sharing,
// Members holds one state per *group* (ordered by each group's lowest
// live subscriber index) and MemberGroup records, for each live query
// in registration order, which group it subscribes to.
type MultiState struct {
	Now     int64
	Seen    int64
	Dropped int64
	Win     window.State
	Edges   []graph.Edge
	Members []*RAPQState

	// Retain-all / dynamic-registration state (zero for static query
	// sets, so pre-dynamic checkpoints decode unchanged): whether the
	// graph stores every label, and the per-label stream clocks that
	// align a dynamically registered member with a from-start engine.
	Retain  bool
	LabelTS []int64

	// Query-sharing state (snapshot format v4): the live-query → group
	// mapping and the relevance-filter counters.
	MemberGroup    []int
	Dispatches     int64
	RelevanceSkips int64
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
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Label < b.Label
	})
	return edges
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

// PlanGroupPartition resolves a snapshot's query→group mapping into
// slot partitions, one per restored group, each paired with its engine
// state. liveIdx lists the coordinator's live registration indices in
// order; key(idx) returns the group key of the query at that index. The
// mapping is authoritative: the partition is restored exactly as
// recorded, and only checked for shape and for groups spanning
// inequivalent queries.
func PlanGroupPartition(st *MultiState, liveIdx []int, key func(int) string) ([][]int, []*RAPQState, error) {
	if len(st.MemberGroup) != len(liveIdx) {
		return nil, nil, fmt.Errorf("core: restore: snapshot maps %d queries, coordinator has %d",
			len(st.MemberGroup), len(liveIdx))
	}
	parts := make([][]int, len(st.Members))
	for rank, idx := range liveIdx {
		gi := st.MemberGroup[rank]
		if gi < 0 || gi >= len(st.Members) {
			return nil, nil, fmt.Errorf("core: restore: query %d maps to group %d of %d", idx, gi, len(st.Members))
		}
		parts[gi] = append(parts[gi], idx)
	}
	for gi, p := range parts {
		if len(p) == 0 {
			return nil, nil, fmt.Errorf("core: restore: snapshot group %d has no subscribers", gi)
		}
		for _, idx := range p[1:] {
			if key(idx) != key(p[0]) {
				return nil, nil, fmt.Errorf("core: restore: group %d spans inequivalent queries %d and %d", gi, p[0], idx)
			}
		}
	}
	return parts, st.Members, nil
}
