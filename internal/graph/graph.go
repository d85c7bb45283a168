// Package graph implements the snapshot graph G_{W,τ} of a sliding
// window over a streaming graph (Definition 5 of Pacaci et al., SIGMOD
// 2020): a directed, edge-labeled multigraph whose edges carry the
// timestamp of the streaming tuple that produced them.
//
// An edge is identified by (src, dst, label). Re-inserting an existing
// edge refreshes its timestamp (the freshest copy is the only one that
// matters for windowed reachability); an explicit deletion removes it.
// Expiry removes all edges whose timestamp has fallen out of the
// window, using a lazy FIFO of insertions that exploits the
// non-decreasing timestamp order of the stream.
//
// # Epoch versioning
//
// The graph is multi-versioned so a pipelined coordinator
// (internal/shard) can write a whole batch, one epoch per tuple, and
// then let reader goroutines traverse each tuple's logical snapshot.
// Every edge version carries a validity interval [added, removed) in
// epochs; the single writer advances the epoch with AdvanceEpoch before
// each group of mutations, and readers observe exactly the versions
// valid at the epoch they were handed (AppendOutAt/AppendInAt/TSAt/...).
// The writer brackets such a batch with BeginBatch and EndBatch: while
// the batch is open every version one of its epochs can see is kept,
// and EndBatch drops every version the batch superseded, so between
// batches the graph holds live versions only and is identical in
// content to a never-versioned graph fed the same stream. A graph that
// never opens a batch is unversioned: every superseded version is
// overwritten in place, exactly the pre-epoch behaviour and cost.
//
// # Memory layout
//
// Adjacency is a flat CSR-style table, not nested maps: vertex ids are
// dense (stream.Dict assigns them in first-seen order), so a vertex
// indexes directly into a slab-pointer array, and each vertex's edges
// live in one contiguous slab of 32-byte pointer-free cells (csr.go).
// A cell inlines the newest version with its epochs packed as uint32
// deltas against a per-slab base epoch; superseded versions kept for
// the open batch overflow into a flat per-slab arena with a free list.
// Point lookups linearly scan small slabs and use a per-slab index map
// above lookupThreshold. Traversal is a linear walk of one slab:
// no map iteration, no pointer chasing, no per-version allocation.
//
// # Concurrency
//
// The graph has one writer and one write API: AdvanceEpoch, Insert,
// Delete, Expire and the batch bracket, called from one goroutine (the
// coordinator, in both of its schedules). It takes no locks. Readers
// never run concurrently with a write: the pipelined coordinator writes
// a whole batch before it hands the batch's epochs to its readers, and
// closes the batch only after every reader has replied, so the hand-off
// and the reply are the only happens-before edges the graph needs. Any
// number of readers may run concurrently with each other.
//
// Traversal is buffer-based: AppendOutAt/AppendInAt copy the visible
// half-edges of one vertex side into a caller-owned buffer, so the
// caller may freely re-enter graph read methods while consuming it, and
// the walk is allocation-free once the buffer has grown. The same walk,
// AppendOutWhere/AppendInWhere, copies only the cells of a caller's
// labels above a timestamp bound: a Δ engine sharing the graph copies
// only what its automaton steps on. Edges is built on the same copy.
package graph

import (
	"math"

	"streamrpq/internal/stream"
)

// Epoch is a logical version of the graph. The writer advances it with
// AdvanceEpoch; a reader holding epoch e observes exactly the edge
// versions v with v.added <= e < v.removed.
type Epoch uint64

// liveEpoch marks a version that has not been superseded or removed.
const liveEpoch = Epoch(math.MaxUint64)

// Edge is one labeled, timestamped edge of the snapshot graph.
type Edge struct {
	Src   stream.VertexID
	Dst   stream.VertexID
	Label stream.LabelID
	TS    int64
}

// HalfEdge is one adjacency entry as seen from a fixed endpoint: the
// other endpoint, the label, and the edge timestamp. It is the element
// type of the buffer-based traversal API (AppendOutAt/AppendInAt).
type HalfEdge struct {
	V  stream.VertexID
	L  stream.LabelID
	TS int64
}

// Graph is the snapshot graph of the current window.
type Graph struct {
	tab      table
	epoch    Epoch // current (writer) epoch
	numEdges int   // edges live at the current epoch

	// open is set between BeginBatch and EndBatch; floor is then the
	// batch's first epoch, the oldest any of its readers reads. pending
	// queues the keys whose superseded versions the open batch keeps,
	// for EndBatch to prune.
	open    bool
	floor   Epoch
	pending []stream.EdgeKey

	// fifo holds insertion records in arrival order. Stream timestamps
	// are non-decreasing, so expiry pops from the front. Entries are
	// lazily invalidated by re-insertions (newer ts) and deletions, and
	// address edges by key — the O(1) slab point lookup replaces the
	// old map probe.
	fifo []fifoEntry
	head int
}

type fifoEntry struct {
	key stream.EdgeKey
	ts  int64
}

// New returns an empty snapshot graph at epoch 0.
func New() *Graph { return &Graph{} }

// Epoch returns the current writer epoch.
func (g *Graph) Epoch() Epoch { return g.epoch }

// AdvanceEpoch moves the writer to the next epoch and returns it.
// Mutations applied afterwards are invisible to readers holding earlier
// epochs.
func (g *Graph) AdvanceEpoch() Epoch {
	g.epoch++
	return g.epoch
}

// BeginBatch opens a batch whose first step is the next epoch
// (Epoch()+1). Until EndBatch, every version visible at that epoch or
// later is kept, so readers may read any epoch of the batch once the
// writer has written all of it.
func (g *Graph) BeginBatch() { g.open, g.floor = true, g.epoch+1 }

// EndBatch closes the batch once its readers are done and drops every
// version the batch superseded, so DeadVersions is 0 between batches.
func (g *Graph) EndBatch() {
	g.open = false
	for _, key := range g.pending {
		g.pruneSide(true, key.Src, key.Dst, key.Label)
		g.pruneSide(false, key.Dst, key.Src, key.Label)
	}
	g.pending = g.pending[:0]
}

// minReader returns the oldest epoch a reader can still read: the open
// batch's floor, or the current epoch between batches. Versions removed
// at or before it are unobservable forever.
func (g *Graph) minReader() Epoch {
	if g.open && g.floor < g.epoch {
		return g.floor
	}
	return g.epoch
}

// pruneSide drops every version of one adjacency cell that is not live
// at the current epoch.
func (g *Graph) pruneSide(out bool, v, other stream.VertexID, label stream.LabelID) {
	s := g.tab.slab(out, v)
	if s == nil {
		return
	}
	idx := s.find(other, label)
	if idx < 0 {
		return
	}
	pe := &s.edges[idx]
	if s.absRemoved(pe) <= g.epoch {
		// The newest version is dead, so every older one is too.
		s.freeChain(pe)
		s.swapRemove(idx)
		return
	}
	s.pruneOvf(pe, g.epoch)
}

// NumEdges returns the number of distinct (src,dst,label) edges live at
// the current epoch.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumVertices returns the number of vertices incident to at least one
// edge live at the current epoch.
func (g *Graph) NumVertices() int {
	n := 0
	g.Vertices(func(stream.VertexID) bool { n++; return true })
	return n
}

// Insert adds the edge (src,dst,label) with timestamp ts at the current
// epoch, refreshing the timestamp if the edge exists (the superseded
// version stays visible to readers of earlier epochs). It reports
// whether the edge was new.
func (g *Graph) Insert(src, dst stream.VertexID, label stream.LabelID, ts int64) bool {
	epoch, minR := g.epoch, g.minReader()
	g.tab.grow(max(src, dst))
	wasLive := g.tab.editSide(true, src, dst, label, ts, false, epoch, minR)
	g.tab.editSide(false, dst, src, label, ts, false, epoch, minR)

	key := stream.EdgeKey{Src: src, Dst: dst, Label: label}
	if !wasLive {
		g.numEdges++
	} else if minR < epoch {
		// The superseded version stays visible to the open batch's
		// earlier epochs; EndBatch drops it.
		g.pending = append(g.pending, key)
	}
	g.fifo = append(g.fifo, fifoEntry{key: key, ts: ts})
	return !wasLive
}

// upsert installs a new inline version for (other,label) in the slab
// and reports whether a live version was superseded. A superseded or
// tombstoned previous version is pushed to the overflow arena iff a
// reader at an epoch below its removal may still observe it (removal
// epoch > minR); otherwise it is dropped on the spot — the unversioned
// fast path that makes the zero-epoch discipline cost what the
// pre-epoch graph did.
func (s *slab) upsert(other stream.VertexID, label stream.LabelID, ts int64, epoch, minR Epoch) bool {
	// Resolve the delta first: a rebase here may compact the slab, so
	// the cell index must be looked up afterwards.
	ad := s.deltaFor(epoch, minR)
	idx := s.find(other, label)
	if idx < 0 {
		s.appendEdge(packedEdge{
			ts: ts, other: uint32(other), label: int32(label),
			added: ad, removed: liveDelta, ovf: -1,
		})
		return false
	}
	pe := &s.edges[idx]
	wasLive := pe.removed == liveDelta
	oldRemoved := s.absRemoved(pe)
	if wasLive {
		oldRemoved = epoch
	}
	if oldRemoved > minR {
		s.pushOvf(pe, ovfVersion{ts: pe.ts, added: s.absAdded(pe), removed: oldRemoved})
	}
	s.pruneOvf(pe, minR)
	pe.ts = ts
	pe.added = ad
	pe.removed = liveDelta
	return wasLive
}

// Delete removes the edge identified by key at the current epoch
// (readers of earlier epochs keep seeing it). It reports whether the
// edge was live.
func (g *Graph) Delete(key stream.EdgeKey) bool {
	epoch, minR := g.epoch, g.minReader()
	if int(key.Src) >= len(g.tab.out) || int(key.Dst) >= len(g.tab.in) {
		return false
	}
	// The out side decides liveness.
	if !g.tab.editSide(true, key.Src, key.Dst, key.Label, 0, true, epoch, minR) {
		return false
	}
	g.tab.editSide(false, key.Dst, key.Src, key.Label, 0, true, epoch, minR)
	g.numEdges--
	if minR < epoch {
		g.pending = append(g.pending, key)
	}
	return true
}

// tsAt returns the timestamp of the edge visible at epoch e.
func (g *Graph) tsAt(key stream.EdgeKey, e Epoch) (int64, bool) {
	s := g.tab.slab(true, key.Src)
	if s == nil {
		return 0, false
	}
	idx := s.find(key.Dst, key.Label)
	if idx < 0 {
		return 0, false
	}
	return s.versionAt(&s.edges[idx], e)
}

// TS returns the timestamp of the edge live at the current epoch and
// whether it exists.
func (g *Graph) TS(key stream.EdgeKey) (int64, bool) { return g.tsAt(key, g.epoch) }

// TSAt returns the timestamp of the edge visible at epoch e.
func (g *Graph) TSAt(e Epoch, key stream.EdgeKey) (int64, bool) { return g.tsAt(key, e) }

// Has reports whether the edge is live at the current epoch.
func (g *Graph) Has(key stream.EdgeKey) bool {
	_, ok := g.TS(key)
	return ok
}

// appendSide copies into buf, in slab order, the half-edges of one
// vertex side visible at epoch e whose label is wanted (all when want is
// nil, none past its end) and whose timestamp is above after. A cell's
// label never changes, so it is tested before the version lookup.
func (g *Graph) appendSide(out bool, e Epoch, v stream.VertexID, want []bool, after int64, buf []HalfEdge) []HalfEdge {
	s := g.tab.slab(out, v)
	if s == nil {
		return buf
	}
	for i := range s.edges {
		pe := &s.edges[i]
		if want != nil && (uint32(pe.label) >= uint32(len(want)) || !want[pe.label]) {
			continue
		}
		if ts, ok := s.versionAt(pe, e); ok && ts > after {
			buf = append(buf, HalfEdge{V: stream.VertexID(pe.other), L: stream.LabelID(pe.label), TS: ts})
		}
	}
	return buf
}

// AppendOutAt appends every out-edge of src visible at epoch e to buf
// and returns the extended slice (AppendOutWhere without a mask, above
// math.MinInt64, which the front end rejects). The caller owns the copy,
// so the result may be consumed by code that itself traverses the graph.
// Reusing buf across calls makes traversal allocation-free.
func (g *Graph) AppendOutAt(e Epoch, src stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(true, e, src, nil, math.MinInt64, buf)
}

// AppendInAt appends every in-edge of dst visible at epoch e to buf
// and returns the extended slice; see AppendOutAt.
func (g *Graph) AppendInAt(e Epoch, dst stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(false, e, dst, nil, math.MinInt64, buf)
}

// AppendOutWhere is AppendOutAt restricted, in the same order, to the
// edges with want[label] set and a timestamp above after: the hot-path
// traversal of internal/core, which copies no cell it would skip.
func (g *Graph) AppendOutWhere(e Epoch, src stream.VertexID, want []bool, after int64, buf []HalfEdge) []HalfEdge {
	return g.appendSide(true, e, src, want, after, buf)
}

// AppendInWhere is AppendOutWhere for the in-edges of dst.
func (g *Graph) AppendInWhere(e Epoch, dst stream.VertexID, want []bool, after int64, buf []HalfEdge) []HalfEdge {
	return g.appendSide(false, e, dst, want, after, buf)
}

// Edges calls f for every edge live at the current epoch — the flat
// fold of the version intervals that checkpoint serialization records
// (the on-disk format stays epoch-free). Each vertex's half-edges are
// copied out before f runs, so f may re-enter graph read methods.
// Returning false stops the iteration early.
func (g *Graph) Edges(f func(e Edge) bool) {
	var buf []HalfEdge
	for v := range g.tab.out {
		buf = g.AppendOutAt(g.epoch, stream.VertexID(v), buf[:0])
		for i := range buf {
			if !f(Edge{Src: stream.VertexID(v), Dst: buf[i].V, Label: buf[i].L, TS: buf[i].TS}) {
				return
			}
		}
	}
}

// Vertices calls f for every vertex incident to at least one edge live
// at the current epoch, in ascending dense-id order.
func (g *Graph) Vertices(f func(v stream.VertexID) bool) {
	t := &g.tab
	for v := range t.out {
		live := (t.out[v] != nil && t.out[v].hasLive()) || (t.in[v] != nil && t.in[v].hasLive())
		if live && !f(stream.VertexID(v)) {
			return
		}
	}
}

// VertexUpperBound returns an exclusive upper bound on the dense
// vertex ids the graph has ever allocated adjacency for. Iterating
// [0, bound) with AppendOutAt visits every vertex that can have edges
// at any epoch — unlike Vertices, which filters by liveness at the
// current epoch and can therefore miss vertices whose edges are
// visible only at an earlier epoch of the open batch.
func (g *Graph) VertexUpperBound() stream.VertexID {
	return stream.VertexID(len(g.tab.out))
}

// Expire removes every edge whose timestamp is ≤ deadline at the
// current epoch and calls onRemove (if non-nil) for each removed edge.
// Amortized O(1) per insertion thanks to the FIFO invariant; readers of
// earlier epochs of the open batch keep seeing the expired edges.
func (g *Graph) Expire(deadline int64, onRemove func(e Edge)) int {
	removed := 0
	for g.head < len(g.fifo) {
		ent := g.fifo[g.head]
		if ent.ts > deadline {
			break
		}
		g.head++
		cur, ok := g.TS(ent.key)
		if !ok || cur != ent.ts {
			continue // deleted or refreshed since this record was queued
		}
		if cur <= deadline {
			g.Delete(ent.key)
			if onRemove != nil {
				onRemove(Edge{Src: ent.key.Src, Dst: ent.key.Dst, Label: ent.key.Label, TS: cur})
			}
			removed++
		}
	}
	// Compact the FIFO occasionally to bound memory.
	if g.head > 1024 && g.head*2 > len(g.fifo) {
		g.fifo = append(g.fifo[:0:0], g.fifo[g.head:]...)
		g.head = 0
	}
	return removed
}

// DeadVersions returns the number of retained versions that are not
// live at the current epoch — superseded or tombstoned versions kept
// only for the open batch's readers. It is 0 between batches (the
// compaction invariant the epoch tests assert).
func (g *Graph) DeadVersions() int {
	n := 0
	for _, s := range g.tab.out {
		if s == nil {
			continue
		}
		for i := range s.edges {
			pe := &s.edges[i]
			if pe.removed != liveDelta {
				n++
			}
			for cur := pe.ovf; cur >= 0; cur = s.ovf[cur].next {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the graph's content at the current epoch
// (used by the batch oracle in tests). Version history and the FIFO are
// not cloned; a cloned graph is a static snapshot.
func (g *Graph) Clone() *Graph {
	c := New()
	g.Edges(func(e Edge) bool {
		c.Insert(e.Src, e.Dst, e.Label, e.TS)
		return true
	})
	return c
}
