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
// # Batch-scoped versions
//
// The graph is multi-versioned for exactly one batch at a time, so a
// coordinator (internal/shard) can write a whole batch, one epoch per
// step, and then let reader goroutines traverse each step's logical
// snapshot. The writer opens a batch with BeginBatch and advances the
// epoch with AdvanceEpoch before each step's mutations; a reader handed
// epoch e observes exactly the edge versions v with v.added <= e <
// v.removed (AppendOutAt/AppendInAt/TSAt/...). The epoch counts the
// steps of the open batch: readers read epochs 1 and later, so the
// batch's first step, like every write outside a batch, writes in
// place, and only later steps keep what they supersede. EndBatch settles
// every key the batch wrote — a live cell restarts at epoch 0 without
// its superseded versions, a dead cell leaves its slab — empties the
// arena of superseded versions and restarts the epoch at 0. Between
// batches the graph therefore holds live versions only, all at epoch 0,
// and is identical in content to a never-versioned graph fed the same
// stream; no version outlives its batch (the batch-scoped
// multiversioning of Faleiro & Abadi).
//
// # Memory layout
//
// Adjacency is a flat CSR-style table, not nested maps: vertex ids are
// dense (stream.Dict assigns them in first-seen order), so a vertex
// indexes directly into a slab-pointer array, and each vertex's edges
// live in one contiguous slab of 32-byte pointer-free cells (csr.go).
// A cell inlines the newest version with its uint32 epochs; the
// superseded versions the open batch keeps go to one graph-level arena,
// chained per cell, which EndBatch truncates. A slab header is 32
// bytes: the cell array and a pointer to its index, which a slab gets
// once it grows past lookupThreshold and keeps. The index holds a
// (other,label) → cell map for point lookups (small slabs scan
// linearly) and threads the slab's cells into one doubly linked run per
// label, ascending by timestamp and found through the slab's sorted
// labels; a cell leaves or moves in O(1) in both. Traversal is a linear
// walk of one slab, or of the wanted labels' runs: no map iteration, no
// per-version allocation.
//
// # Concurrency
//
// The graph has one writer and one write API: AdvanceEpoch, Insert,
// Delete, Expire and the batch bracket, called from one goroutine (the
// coordinator). It takes no locks. Readers never run concurrently with
// a write: the coordinator writes a whole batch before it hands the
// batch's epochs to its readers, and closes the batch only after every
// reader has replied, so the hand-off and the reply are the only
// happens-before edges the graph needs. Any number of readers may run
// concurrently with each other.
//
// Traversal is buffer-based: AppendOutAt/AppendInAt copy the visible
// half-edges of one vertex side into a caller-owned buffer, so the
// caller may freely re-enter graph read methods while consuming it, and
// the walk is allocation-free once the buffer has grown. The filtered
// walk, AppendOutWhere/AppendInWhere, copies only the cells of a
// caller's Labels above a timestamp bound: a Δ engine sharing the graph
// copies only what its automaton steps on, and on an indexed slab it
// reads only the runs of those labels, so a hub costs its degree in the
// wanted labels, not its full degree. That walk yields an indexed
// slab's cells label by label; every other walk, Edges included, keeps
// slab order.
package graph

import (
	"math"

	"streamrpq/internal/stream"
)

// Epoch is a logical version of the graph: the number of steps the open
// batch has taken, 0 outside a batch. A reader holding epoch e observes
// exactly the edge versions v with v.added <= e < v.removed.
type Epoch uint32

// liveEpoch marks a version that has not been superseded or removed;
// maxEpoch is the last step a batch may take.
const (
	liveEpoch = Epoch(math.MaxUint32)
	maxEpoch  = liveEpoch - 1
)

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

	// open is set between BeginBatch and EndBatch. pending queues the
	// keys the open batch wrote after its first step, for EndBatch to
	// settle; vers is the arena of the versions they superseded.
	open    bool
	pending []stream.EdgeKey
	vers    []version

	// fifo holds insertion records in arrival order. Stream timestamps
	// are non-decreasing (Insert enforces it), so expiry pops from the
	// front. Entries are lazily invalidated by re-insertions (newer ts)
	// and deletions, and address edges by key — the O(1) slab point
	// lookup replaces the old map probe.
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

// AdvanceEpoch moves the writer to the open batch's next step and
// returns its epoch. Mutations applied afterwards are invisible to
// readers holding earlier epochs. It panics outside a batch and past
// maxEpoch steps in one batch.
func (g *Graph) AdvanceEpoch() Epoch {
	if !g.open {
		panic("graph: AdvanceEpoch outside a batch")
	}
	if g.epoch == maxEpoch {
		panic("graph: more than 2^32-2 steps in one batch")
	}
	g.epoch++
	return g.epoch
}

// BeginBatch opens a batch at epoch 0; its first step is epoch 1. Until
// EndBatch every version one of its steps can see is kept, so readers
// may read any epoch of the batch once the writer has written all of it.
func (g *Graph) BeginBatch() { g.open = true }

// EndBatch closes the batch once its readers are done: it settles every
// key the batch wrote, empties the arena and restarts the epoch at 0, so
// DeadVersions is 0 between batches.
func (g *Graph) EndBatch() {
	for _, key := range g.pending {
		g.settle(true, key.Src, key.Dst, key.Label)
		g.settle(false, key.Dst, key.Src, key.Label)
	}
	g.pending = g.pending[:0]
	g.vers = g.vers[:0]
	g.open, g.epoch = false, 0
}

// settle folds one cell the batch wrote back to epoch 0: a live cell
// loses its superseded versions, a dead one leaves the slab. A key
// written twice is settled by its first entry.
func (g *Graph) settle(out bool, v, other stream.VertexID, label stream.LabelID) {
	s := g.tab.slab(out, v)
	idx := s.find(other, label)
	if idx < 0 {
		return
	}
	if pe := &s.edges[idx]; pe.removed == liveEpoch {
		pe.added, pe.prev = 0, -1
	} else {
		s.swapRemove(idx)
	}
}

// keep reports whether a write must keep what it supersedes: past the
// open batch's first step, where the readers of earlier steps may still
// read it. No reader reads epoch 0, so a write at epoch 1, like every
// write outside a batch, is in place.
func (g *Graph) keep() bool { return g.epoch > 1 }

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
// whether the edge was new. Timestamps must not decrease from one
// Insert to the next — the expiry FIFO and the bounded walks of indexed
// slabs rely on it — so Insert panics on a timestamp below the newest
// one still queued for expiry; equal timestamps pass.
func (g *Graph) Insert(src, dst stream.VertexID, label stream.LabelID, ts int64) bool {
	if n := len(g.fifo); n > 0 && ts < g.fifo[n-1].ts {
		panic("graph: Insert below the newest timestamp")
	}
	g.tab.grow(max(src, dst))
	wasLive := g.editSide(true, src, dst, label, ts, false)
	g.editSide(false, dst, src, label, ts, false)

	key := stream.EdgeKey{Src: src, Dst: dst, Label: label}
	if !wasLive {
		g.numEdges++
	}
	if g.keep() {
		g.pending = append(g.pending, key)
	}
	g.fifo = append(g.fifo, fifoEntry{key: key, ts: ts})
	return !wasLive
}

// Delete removes the edge identified by key at the current epoch
// (readers of earlier epochs keep seeing it). It reports whether the
// edge was live.
func (g *Graph) Delete(key stream.EdgeKey) bool {
	if int(key.Src) >= len(g.tab.out) || int(key.Dst) >= len(g.tab.in) {
		return false
	}
	// The out side decides liveness.
	if !g.editSide(true, key.Src, key.Dst, key.Label, 0, true) {
		return false
	}
	g.editSide(false, key.Dst, key.Src, key.Label, 0, true)
	g.numEdges--
	if g.keep() {
		g.pending = append(g.pending, key)
	}
	return true
}

// editSide applies one half of an edge mutation to vertex v's out slab
// (out) or in slab, which must be within the table, and reports whether
// (other,label) had a live version before the edit. An insert creates
// the slab on first use. Unless the write must keep what it supersedes
// (keep), the edit is in place: a refresh overwrites the cell and a
// delete swap-removes it. Otherwise a refresh chains the superseded
// version into the arena and stamps the new one with the epoch, and a
// delete leaves a tombstone; EndBatch settles both.
func (g *Graph) editSide(out bool, v, other stream.VertexID, label stream.LabelID, ts int64, del bool) bool {
	side := g.tab.in
	if out {
		side = g.tab.out
	}
	s := side[v]
	if s == nil {
		if del {
			return false
		}
		s = &slab{}
		side[v] = s
	}
	keep := g.keep()
	var added Epoch
	if keep {
		added = g.epoch
	}
	idx := s.find(other, label)
	if idx < 0 {
		if !del {
			s.appendEdge(packedEdge{ts: ts, other: uint32(other), label: int32(label), added: added, removed: liveEpoch, prev: -1})
		}
		return false
	}
	pe := &s.edges[idx]
	wasLive := pe.removed == liveEpoch
	switch {
	case del && !wasLive:
	case del && keep:
		pe.removed = g.epoch
	case del:
		s.swapRemove(idx)
	default:
		if keep {
			removed := pe.removed
			if wasLive {
				removed = g.epoch
			}
			g.vers = append(g.vers, version{ts: pe.ts, added: pe.added, removed: removed, next: pe.prev})
			pe.prev = int32(len(g.vers) - 1)
		}
		pe.ts, pe.added, pe.removed = ts, added, liveEpoch
		if s.big != nil {
			s.big.refresh(idx, pe.label)
		}
	}
	return wasLive
}

// versionAt returns the timestamp of the cell's version visible at epoch
// e. Version intervals are disjoint, so chain order is irrelevant for
// correctness.
func (g *Graph) versionAt(pe *packedEdge, e Epoch) (int64, bool) {
	if pe.added <= e && e < pe.removed {
		return pe.ts, true
	}
	for cur := pe.prev; cur >= 0; cur = g.vers[cur].next {
		if v := &g.vers[cur]; v.added <= e && e < v.removed {
			return v.ts, true
		}
	}
	return 0, false
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
	return g.versionAt(&s.edges[idx], e)
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

// Labels is the label filter of a traversal: mask[l] wants label l (a
// label past the mask's end is unwanted), and list holds the wanted
// labels ascending, for the walks of indexed slabs. The zero value wants
// every label.
type Labels struct {
	mask []bool
	list []int32
}

// NewLabels returns the filter wanting the labels set in mask; a nil
// mask wants every label.
func NewLabels(mask []bool) Labels {
	w := Labels{mask: mask}
	for l, ok := range mask {
		if ok {
			w.list = append(w.list, int32(l))
		}
	}
	return w
}

// Has reports whether w wants label l.
func (w Labels) Has(l stream.LabelID) bool {
	return w.mask == nil || uint32(l) < uint32(len(w.mask)) && w.mask[l]
}

// appendSide copies into buf the half-edges of one vertex side visible
// at epoch e whose label want wants and whose timestamp is above after.
// An unfiltered walk, and any walk of a slab at or below
// lookupThreshold, copies in slab order, testing each cell's label
// before its version lookup. A filtered walk of an indexed slab reads
// only the runs of the wanted labels, so it copies label by label,
// ascending, and within a label by ascending timestamp of the cells'
// newest versions; it reads no cell of an unwanted label. A run whose
// head is at or below after is entered just past its last cell at or
// below after, found from the run's tail: a cell's older versions are
// no newer than it, so every cell before that one fails the bound at
// every epoch, and the walk yields what the unbounded walk would, in
// the same order.
func (g *Graph) appendSide(out bool, e Epoch, v stream.VertexID, want Labels, after int64, buf []HalfEdge) []HalfEdge {
	s := g.tab.slab(out, v)
	if s == nil {
		return buf
	}
	if b := s.big; b != nil && want.mask != nil {
		k := 0
		for _, l := range want.list {
			var ok bool
			if k, ok = b.search(k, l); !ok {
				continue
			}
			id := b.ids[k]
			c := b.heads[id]
			if c >= 0 && s.edges[c].ts <= after {
				c = -1
				for t := b.tails[id]; t >= 0 && s.edges[t].ts > after; t = b.links[t].prev {
					c = t
				}
			}
			for ; c >= 0; c = b.links[c].next {
				pe := &s.edges[c]
				if ts, ok := g.versionAt(pe, e); ok && ts > after {
					buf = append(buf, HalfEdge{V: stream.VertexID(pe.other), L: stream.LabelID(pe.label), TS: ts})
				}
			}
		}
		return buf
	}
	for i := range s.edges {
		pe := &s.edges[i]
		if !want.Has(stream.LabelID(pe.label)) {
			continue
		}
		if ts, ok := g.versionAt(pe, e); ok && ts > after {
			buf = append(buf, HalfEdge{V: stream.VertexID(pe.other), L: stream.LabelID(pe.label), TS: ts})
		}
	}
	return buf
}

// AppendOutAt appends every out-edge of src visible at epoch e to buf,
// in slab order, and returns the extended slice (AppendOutWhere with the
// zero Labels, above math.MinInt64, which the front end rejects). The
// caller owns the copy, so the result may be consumed by code that
// itself traverses the graph. Reusing buf across calls makes traversal
// allocation-free.
func (g *Graph) AppendOutAt(e Epoch, src stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(true, e, src, Labels{}, math.MinInt64, buf)
}

// AppendInAt appends every in-edge of dst visible at epoch e to buf
// and returns the extended slice; see AppendOutAt.
func (g *Graph) AppendInAt(e Epoch, dst stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(false, e, dst, Labels{}, math.MinInt64, buf)
}

// AppendOutWhere is AppendOutAt restricted to the edges whose label want
// wants and whose timestamp is above after: the hot-path traversal of
// internal/core, which copies no cell it would skip and, on a slab past
// lookupThreshold, reads no cell of an unwanted label and none of a
// wanted one before its last cell at or below after. The order is
// AppendOutAt's on a short slab and label-grouped on an indexed one (see
// appendSide), for every after: deterministic, like slab order, and
// likewise a function of the mutation history.
func (g *Graph) AppendOutWhere(e Epoch, src stream.VertexID, want Labels, after int64, buf []HalfEdge) []HalfEdge {
	return g.appendSide(true, e, src, want, after, buf)
}

// AppendInWhere is AppendOutWhere for the in-edges of dst.
func (g *Graph) AppendInWhere(e Epoch, dst stream.VertexID, want Labels, after int64, buf []HalfEdge) []HalfEdge {
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

// DeadVersions returns the number of retained edge versions that are
// not live at the current epoch — tombstones and arena versions kept
// only for the open batch's readers. It is 0 between batches (the
// invariant the epoch tests assert).
func (g *Graph) DeadVersions() int {
	n := 0
	for _, s := range g.tab.out {
		if s == nil {
			continue
		}
		for i := range s.edges {
			pe := &s.edges[i]
			if pe.removed != liveEpoch {
				n++
			}
			for cur := pe.prev; cur >= 0; cur = g.vers[cur].next {
				n++
			}
		}
	}
	return n
}
