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
// The graph is multi-versioned at sub-batch granularity so a pipelined
// coordinator (internal/shard) can keep mutating it while reader
// goroutines still traverse an older logical snapshot. Every edge
// version carries a validity interval [added, removed) in epochs; the
// single writer advances the epoch with AdvanceEpoch before each group
// of mutations, and readers observe exactly the versions valid at the
// epoch they were handed (AppendOutAt/AppendInAt/TSAt/...). Readers
// register the epoch they traverse with AcquireEpoch/ReleaseEpoch;
// versions no reader can see anymore are compacted away by an
// amortized-O(1) garbage collector, so a graph whose readers have all
// retired is byte-identical in content to a never-versioned graph fed
// the same stream. The zero-value discipline — never advancing the
// epoch and never acquiring readers — degenerates to an unversioned
// graph: every superseded version is overwritten in place, exactly the
// pre-epoch behaviour and cost.
//
// # Memory layout
//
// Adjacency is a flat CSR-style table, not nested maps: vertex ids are
// dense (stream.Dict assigns them in first-seen order), so a vertex
// indexes directly into a slab-pointer array, and each vertex's edges
// live in one contiguous slab of 32-byte pointer-free cells (csr.go).
// A cell inlines the newest version with its epochs packed as uint32
// deltas against a per-slab base epoch; superseded versions kept for
// leased readers overflow into a flat per-slab arena with a free list.
// Point lookups linearly scan small slabs and use a per-slab index map
// above lookupThreshold. Traversal is a linear walk of one slab:
// no map iteration, no pointer chasing, no per-version allocation.
//
// # Concurrency
//
// All methods are safe for one writer goroutine concurrent with any
// number of reader goroutines. The single global RWMutex of earlier
// versions is replaced by a table of 64 stripe RWMutexes: stripe(v)
// guards vertex v's out- and in-slabs, so concurrent readers of
// different vertices never contend with each other or (usually) with
// the writer. The top-level slab table is published via an atomic
// pointer and grown copy-on-write; slabs never move once allocated.
//
// Traversal is buffer-based: AppendOutAt/AppendInAt copy the visible
// half-edges of one vertex side into a caller-owned buffer under the
// vertex's stripe read lock and return with no lock held, so the
// caller may freely re-enter graph read methods while consuming it —
// even for the same stripe, even with concurrent writer goroutines —
// and the walk is allocation-free once the buffer has grown. The
// whole-graph callback (Edges) is built on the same copy.
package graph

import (
	"math"
	"sync"
	"sync/atomic"

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

// numStripes is the size of the stripe lock table (power of two).
const numStripes = 64

// paddedRWMutex keeps each stripe on its own cache lines so reader
// lock traffic on one stripe never invalidates a neighbour's line.
type paddedRWMutex struct {
	sync.RWMutex
	_ [104]byte // 24-byte RWMutex + padding = 128 bytes
}

// Graph is the snapshot graph of the current window.
type Graph struct {
	// tab is the dense-id slab table; the writer grows it copy-on-write
	// and publishes via this pointer. Slab-pointer slots are read and
	// written only under the owning vertex's stripe lock.
	tab     atomic.Pointer[table]
	stripes [numStripes]paddedRWMutex

	epoch    atomic.Uint64 // current (writer) epoch
	numEdges atomic.Int64  // edges live at the current epoch

	// minRC caches the smallest epoch any registered reader holds
	// (MaxUint64 when none), maintained under gcMu but read lock-free
	// by the writer's retention decisions. A stale (smaller) value only
	// retains a version longer; the gcLocked call that follows every
	// pending-queue append re-checks under gcMu and compacts anything
	// the stale read over-retained.
	minRC atomic.Uint64

	// gcMu guards the reader registry and the compaction queue.
	// Lock-order invariant: gcMu may be taken before stripe locks
	// (gcLocked prunes under them) but never while holding one.
	gcMu        sync.Mutex
	leases      leaseRing // active reader refcounts per epoch
	pending     []gcEntry
	pendingHead int

	// fifo holds insertion records in arrival order. Stream timestamps
	// are non-decreasing, so expiry pops from the front. Entries are
	// lazily invalidated by re-insertions (newer ts) and deletions, and
	// address edges by key — the O(1) slab point lookup replaces the
	// old map probe. Only the writer goroutine touches the FIFO.
	fifo []fifoEntry
	head int
}

type gcEntry struct {
	key     stream.EdgeKey
	removed Epoch
}

type fifoEntry struct {
	key stream.EdgeKey
	ts  int64
}

// New returns an empty snapshot graph at epoch 0.
func New() *Graph {
	g := &Graph{}
	g.tab.Store(&table{})
	g.minRC.Store(math.MaxUint64)
	return g
}

func (g *Graph) stripeFor(v stream.VertexID) *paddedRWMutex {
	return &g.stripes[uint32(v)&(numStripes-1)]
}

// Epoch returns the current writer epoch.
func (g *Graph) Epoch() Epoch { return Epoch(g.epoch.Load()) }

// AdvanceEpoch moves the writer to the next epoch and returns it.
// Mutations applied afterwards are invisible to readers holding earlier
// epochs.
func (g *Graph) AdvanceEpoch() Epoch { return Epoch(g.epoch.Add(1)) }

// AcquireEpoch registers an active reader at epoch e (normally the
// current epoch, captured right after the writer's mutations for a
// sub-batch). Versions visible at e are retained until the matching
// ReleaseEpoch.
func (g *Graph) AcquireEpoch(e Epoch) {
	g.gcMu.Lock()
	g.leases.acquire(e)
	g.minRC.Store(g.leases.min())
	g.gcMu.Unlock()
}

// ReleaseEpoch retires a reader registered with AcquireEpoch and
// compacts every version no remaining (or future) reader can observe.
// Amortized O(1): the lease ring (lease.go) replaces the old rescan of
// a refcount map, so release cost no longer grows with the number of
// active leases.
func (g *Graph) ReleaseEpoch(e Epoch) {
	g.gcMu.Lock()
	g.leases.release(e)
	g.minRC.Store(g.leases.min())
	g.gcLocked()
	g.gcMu.Unlock()
}

// minReader returns the oldest epoch any active reader holds; the
// current epoch when no reader is registered. Future readers always
// acquire at least the current epoch, so versions removed at or before
// this bound are unobservable forever.
func (g *Graph) minReader(epoch Epoch) Epoch {
	if m := Epoch(g.minRC.Load()); m < epoch {
		return m
	}
	return epoch
}

// gcLocked compacts superseded versions whose removal epoch is at or
// below the oldest active reader (gcMu held). Amortized O(1) per
// removal: each queued entry is processed once, and the queue is in
// removal order because only the monotone writer epoch enters it.
func (g *Graph) gcLocked() {
	minR := g.minReader(g.Epoch())
	for g.pendingHead < len(g.pending) && g.pending[g.pendingHead].removed <= minR {
		key := g.pending[g.pendingHead].key
		g.pruneSide(true, key.Src, key.Dst, key.Label, minR)
		g.pruneSide(false, key.Dst, key.Src, key.Label, minR)
		g.pendingHead++
	}
	if g.pendingHead > 1024 && g.pendingHead*2 > len(g.pending) {
		g.pending = append(g.pending[:0:0], g.pending[g.pendingHead:]...)
		g.pendingHead = 0
	}
}

// pruneSide drops every version of one adjacency cell removed at or
// before bound, taking the vertex's stripe lock.
func (g *Graph) pruneSide(out bool, v, other stream.VertexID, label stream.LabelID, bound Epoch) {
	t := g.tab.Load()
	if int(v) >= len(t.out) {
		return
	}
	st := g.stripeFor(v)
	st.Lock()
	defer st.Unlock()
	var s *slab
	if out {
		s = t.out[v]
	} else {
		s = t.in[v]
	}
	if s == nil {
		return
	}
	idx := s.find(other, label)
	if idx < 0 {
		return
	}
	pe := &s.edges[idx]
	if s.absRemoved(pe) <= bound {
		// The newest version is dead, so every older one is too.
		s.freeChain(pe)
		s.swapRemove(idx)
		return
	}
	s.pruneOvf(pe, bound)
}

// NumEdges returns the number of distinct (src,dst,label) edges live at
// the current epoch.
func (g *Graph) NumEdges() int { return int(g.numEdges.Load()) }

// NumVertices returns the number of vertices incident to at least one
// edge live at the current epoch.
func (g *Graph) NumVertices() int {
	t := g.tab.Load()
	n := 0
	for v := range t.out {
		st := g.stripeFor(stream.VertexID(v))
		st.RLock()
		if (t.out[v] != nil && t.out[v].hasLive()) || (t.in[v] != nil && t.in[v].hasLive()) {
			n++
		}
		st.RUnlock()
	}
	return n
}

// writerTable returns the current slab table, grown (and republished)
// to cover both vertex ids. Writer goroutine only.
func (g *Graph) writerTable(a, b stream.VertexID) *table {
	t := g.tab.Load()
	m := a
	if b > m {
		m = b
	}
	if int(m) >= len(t.out) {
		t = t.grown(m)
		g.tab.Store(t)
	}
	return t
}

// Insert adds the edge (src,dst,label) with timestamp ts at the current
// epoch, refreshing the timestamp if the edge exists (the superseded
// version stays visible to readers of earlier epochs). It reports
// whether the edge was new.
func (g *Graph) Insert(src, dst stream.VertexID, label stream.LabelID, ts int64) bool {
	epoch := g.Epoch()
	minR := g.minReader(epoch)
	t := g.writerTable(src, dst)

	st := g.stripeFor(src)
	st.Lock()
	wasLive := t.editSide(true, src, dst, label, ts, false, epoch, minR)
	st.Unlock()

	st = g.stripeFor(dst)
	st.Lock()
	t.editSide(false, dst, src, label, ts, false, epoch, minR)
	st.Unlock()

	key := stream.EdgeKey{Src: src, Dst: dst, Label: label}
	if wasLive {
		if minR < epoch {
			// The superseded version stays visible to an active reader;
			// queue it for compaction once that reader retires. gcLocked
			// re-checks with a fresh minimum in case a release raced the
			// lock-free minR read above.
			g.gcMu.Lock()
			g.pending = append(g.pending, gcEntry{key: key, removed: epoch})
			g.gcLocked()
			g.gcMu.Unlock()
		}
	} else {
		g.numEdges.Add(1)
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
	epoch := g.Epoch()
	minR := g.minReader(epoch)

	t := g.tab.Load()
	if int(key.Src) >= len(t.out) || int(key.Dst) >= len(t.in) {
		return false
	}

	// The out side decides liveness.
	st := g.stripeFor(key.Src)
	st.Lock()
	removed := t.editSide(true, key.Src, key.Dst, key.Label, 0, true, epoch, minR)
	st.Unlock()
	if !removed {
		return false
	}

	st = g.stripeFor(key.Dst)
	st.Lock()
	t.editSide(false, key.Dst, key.Src, key.Label, 0, true, epoch, minR)
	st.Unlock()

	g.numEdges.Add(-1)
	if minR < epoch {
		g.gcMu.Lock()
		g.pending = append(g.pending, gcEntry{key: key, removed: epoch})
		g.gcLocked()
		g.gcMu.Unlock()
	}
	return true
}

// tsAt returns the timestamp of the edge visible at epoch e.
func (g *Graph) tsAt(key stream.EdgeKey, e Epoch) (int64, bool) {
	t := g.tab.Load()
	if int(key.Src) >= len(t.out) {
		return 0, false
	}
	st := g.stripeFor(key.Src)
	st.RLock()
	defer st.RUnlock()
	s := t.out[key.Src]
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
func (g *Graph) TS(key stream.EdgeKey) (int64, bool) { return g.tsAt(key, g.Epoch()) }

// TSAt returns the timestamp of the edge visible at epoch e.
func (g *Graph) TSAt(e Epoch, key stream.EdgeKey) (int64, bool) { return g.tsAt(key, e) }

// Has reports whether the edge is live at the current epoch.
func (g *Graph) Has(key stream.EdgeKey) bool {
	_, ok := g.TS(key)
	return ok
}

// appendSide copies one vertex side's visible half-edges into buf
// under the stripe read lock and returns the extended buffer.
func (g *Graph) appendSide(out bool, e Epoch, v stream.VertexID, buf []HalfEdge) []HalfEdge {
	t := g.tab.Load()
	if int(v) >= len(t.out) {
		return buf
	}
	st := g.stripeFor(v)
	st.RLock()
	var s *slab
	if out {
		s = t.out[v]
	} else {
		s = t.in[v]
	}
	if s != nil {
		for i := range s.edges {
			pe := &s.edges[i]
			if ts, ok := s.versionAt(pe, e); ok {
				buf = append(buf, HalfEdge{V: stream.VertexID(pe.other), L: stream.LabelID(pe.label), TS: ts})
			}
		}
	}
	st.RUnlock()
	return buf
}

// AppendOutAt appends every out-edge of src visible at epoch e to buf
// and returns the extended slice. The copy is taken under the stripe
// read lock; the caller iterates the buffer without holding any graph
// lock, so the result may be consumed by code that itself traverses
// the graph. Reusing buf across calls makes steady-state traversal
// allocation-free; this is the hot-path API of internal/core.
func (g *Graph) AppendOutAt(e Epoch, src stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(true, e, src, buf)
}

// AppendInAt appends every in-edge of dst visible at epoch e to buf
// and returns the extended slice; see AppendOutAt.
func (g *Graph) AppendInAt(e Epoch, dst stream.VertexID, buf []HalfEdge) []HalfEdge {
	return g.appendSide(false, e, dst, buf)
}

// Edges calls f for every edge live at the current epoch — the flat
// fold of the version intervals that checkpoint serialization records
// (the on-disk format stays epoch-free). Each vertex's half-edges are
// copied out under its stripe lock before f runs, so f may re-enter
// graph read methods. Returning false stops the iteration early.
func (g *Graph) Edges(f func(e Edge) bool) {
	ep := g.Epoch()
	t := g.tab.Load()
	var buf []HalfEdge
	for v := range t.out {
		buf = g.appendSide(true, ep, stream.VertexID(v), buf[:0])
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
	t := g.tab.Load()
	for v := range t.out {
		st := g.stripeFor(stream.VertexID(v))
		st.RLock()
		live := (t.out[v] != nil && t.out[v].hasLive()) || (t.in[v] != nil && t.in[v].hasLive())
		st.RUnlock()
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
// visible only at an older leased epoch.
func (g *Graph) VertexUpperBound() stream.VertexID {
	return stream.VertexID(len(g.tab.Load().out))
}

// Expire removes every edge whose timestamp is ≤ deadline at the
// current epoch and calls onRemove (if non-nil) for each removed edge.
// Amortized O(1) per insertion thanks to the FIFO invariant; readers of
// earlier epochs keep seeing the expired edges until they release.
func (g *Graph) Expire(deadline int64, onRemove func(e Edge)) int {
	epoch := g.Epoch()
	removed := 0
	for g.head < len(g.fifo) {
		ent := g.fifo[g.head]
		if ent.ts > deadline {
			break
		}
		g.head++
		cur, ok := g.tsAt(ent.key, epoch)
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
// only for active readers. It is 0 once every reader has released and
// the GC has run (the compaction invariant the epoch-GC tests assert).
func (g *Graph) DeadVersions() int {
	t := g.tab.Load()
	n := 0
	for v := range t.out {
		st := g.stripeFor(stream.VertexID(v))
		st.RLock()
		if s := t.out[v]; s != nil {
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
		st.RUnlock()
	}
	return n
}

// ActiveReaders returns the number of distinct epochs with registered
// readers (diagnostics).
func (g *Graph) ActiveReaders() int {
	g.gcMu.Lock()
	defer g.gcMu.Unlock()
	return g.leases.distinct
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
