package graph

import (
	"sync"

	"streamrpq/internal/stream"
)

// This file implements multi-writer epoch construction: stripe-parallel
// application of one epoch's mutations, in the style of Faleiro &
// Abadi's "Rethinking serializable MVCC" — version *creation* is
// separated from *visibility*. The coordinator plans a sub-batch's
// mutations serially (phase 1), partitioning each edge mutation into
// its two half-mutations — the out half owned by stripe(src), the in
// half owned by stripe(dst) — and N writer goroutines then apply the
// per-stripe queues concurrently into the CSR slabs (phase 2). Readers
// never observe the half-built epoch: they hold leases on earlier
// epochs, and visibility flips only at the single atomic AdvanceEpoch
// that *precedes* planning, with result dispatch gated on the Flush
// barrier.
//
// Byte-identity across writer counts falls out of the partitioning: a
// slab is owned by exactly one stripe, a stripe's queue preserves plan
// order, and plan order equals the serial engine's mutation order — so
// every slab sees the identical mutation history no matter how many
// writers drain the queues, including delete/re-insert hazard pairs
// whose two halves land on different stripes. With writers == 1 the
// queues are applied inline on the caller with no goroutines, channels
// or extra synchronization: the degenerate case is today's engine.

// Stripe returns the lock-stripe index owning vertex v's slabs.
func Stripe(v stream.VertexID) int { return int(uint32(v) & (numStripes - 1)) }

// halfMut is one planned half-mutation: the edit a writer applies to a
// single vertex-side slab under that vertex's stripe lock.
type halfMut struct {
	v     stream.VertexID // slab owner
	other stream.VertexID // opposite endpoint
	label stream.LabelID
	ts    int64
	out   bool // v's out-slab (else its in-slab)
	del   bool // remove/tombstone instead of upsert
}

// Applier builds one epoch's mutations with a fixed pool of writer
// goroutines. Plan methods (BeginEpoch, PlanInsert, PlanDelete,
// PlanExpire, Live) run on the coordinator goroutine only; Flush
// applies the plan and returns after a full barrier. The graph must be
// mutated only through the Applier (or only through the direct
// Insert/Delete/Expire API) — the two writer paths must not interleave
// within an epoch.
type Applier struct {
	g       *Graph
	writers int

	// Plan state, coordinator-only between Flush barriers. Workers
	// read tab/epoch/minR/queues during Flush; the work-channel send
	// and WaitGroup establish the needed happens-before edges.
	epoch  Epoch
	minR   Epoch
	tab    *table
	queues [numStripes][]halfMut

	// overlay records the planned liveness of every key mutated in the
	// current plan, shadowing the (not yet applied) graph in hazard
	// checks: true = live after the plan, false = dead after the plan.
	overlay map[stream.EdgeKey]bool

	// gcQ collects retention entries in plan order; they enter the
	// graph's pending queue after the Flush barrier, so GC never runs
	// concurrently with in-flight construction.
	gcQ []gcEntry

	work chan int // writer index to run; closed by Close
	wg   sync.WaitGroup
}

// NewApplier returns an Applier over g with the given writer count
// (values below 1 are treated as 1). For writers > 1 it starts
// writers-1 pool goroutines; Close releases them.
func NewApplier(g *Graph, writers int) *Applier {
	if writers < 1 {
		writers = 1
	}
	a := &Applier{g: g, writers: writers, overlay: make(map[stream.EdgeKey]bool)}
	if writers > 1 {
		// Workers range over a local copy of the channel: Close nils
		// the field, and a worker scheduled late must not read it.
		work := make(chan int)
		a.work = work
		for i := 1; i < writers; i++ {
			go func() {
				for w := range work {
					a.applyStripes(w)
					a.wg.Done()
				}
			}()
		}
	}
	return a
}

// Writers returns the configured writer count.
func (a *Applier) Writers() int { return a.writers }

// Close stops the writer pool. The Applier must be idle (no Flush in
// flight); plan state is discarded.
func (a *Applier) Close() {
	if a.work != nil {
		close(a.work)
		a.work = nil
	}
}

// BeginEpoch advances the graph to a fresh epoch and starts an empty
// plan for it. The minimum reader bound is captured once here: leases
// change only on the coordinator goroutine, so it cannot move before
// Flush, and it equals what the serial engine would read per mutation.
func (a *Applier) BeginEpoch() Epoch {
	a.epoch = a.g.AdvanceEpoch()
	a.minR = a.g.minReader(a.epoch)
	a.tab = a.g.tab.Load()
	clear(a.overlay)
	return a.epoch
}

// Live reports whether the edge is live in the current plan: keys the
// plan has mutated shadow the (not yet applied) graph.
func (a *Applier) Live(key stream.EdgeKey) bool {
	if l, ok := a.overlay[key]; ok {
		return l
	}
	return a.g.Has(key)
}

func (a *Applier) push(m halfMut) {
	si := Stripe(m.v)
	a.queues[si] = append(a.queues[si], m)
}

// PlanInsert plans the insertion of (src,dst,label) with timestamp ts
// at the current epoch, refreshing the timestamp if the edge is live
// in the plan. It reports whether the edge is new, matching
// Graph.Insert.
func (a *Applier) PlanInsert(src, dst stream.VertexID, label stream.LabelID, ts int64) bool {
	a.tab = a.g.writerTable(src, dst)
	key := stream.EdgeKey{Src: src, Dst: dst, Label: label}
	wasLive := a.Live(key)
	a.push(halfMut{v: src, other: dst, label: label, ts: ts, out: true})
	a.push(halfMut{v: dst, other: src, label: label, ts: ts, out: false})
	a.overlay[key] = true
	if wasLive {
		if a.minR < a.epoch {
			a.gcQ = append(a.gcQ, gcEntry{key: key, removed: a.epoch})
		}
	} else {
		a.g.numEdges.Add(1)
	}
	a.g.fifo = append(a.g.fifo, fifoEntry{key: key, ts: ts})
	return !wasLive
}

// PlanDelete plans the removal of the edge at the current epoch and
// reports whether it was live in the plan, matching Graph.Delete.
func (a *Applier) PlanDelete(key stream.EdgeKey) bool {
	if !a.Live(key) {
		return false
	}
	a.planRemove(key)
	return true
}

func (a *Applier) planRemove(key stream.EdgeKey) {
	a.push(halfMut{v: key.Src, other: key.Dst, label: key.Label, out: true, del: true})
	a.push(halfMut{v: key.Dst, other: key.Src, label: key.Label, out: false, del: true})
	a.overlay[key] = false
	a.g.numEdges.Add(-1)
	if a.minR < a.epoch {
		a.gcQ = append(a.gcQ, gcEntry{key: key, removed: a.epoch})
	}
}

// PlanExpire pops due insertion records off the FIFO and plans the
// removal of every edge still carrying its recorded timestamp,
// returning how many were planned, matching Graph.Expire with a nil
// callback. It must be the first plan call of its epoch (the sub-batch
// hazard discipline guarantees expiry only ever occurs at a
// sub-batch's first tuple), so the FIFO liveness probe reads the fully
// applied graph.
func (a *Applier) PlanExpire(deadline int64) int {
	g := a.g
	removed := 0
	for g.head < len(g.fifo) {
		ent := g.fifo[g.head]
		if ent.ts > deadline {
			break
		}
		g.head++
		if _, planned := a.overlay[ent.key]; planned {
			// Already removed by this very pass (a same-timestamp refresh
			// leaves two FIFO records for one key): the serial engine's
			// liveness probe would see its own applied deletion; ours is
			// still only planned, so the overlay must shadow it.
			continue
		}
		cur, ok := g.tsAt(ent.key, a.epoch)
		if !ok || cur != ent.ts {
			continue // deleted or refreshed since this record was queued
		}
		if cur <= deadline {
			a.planRemove(ent.key)
			removed++
		}
	}
	if g.head > 1024 && g.head*2 > len(g.fifo) {
		g.fifo = append(g.fifo[:0:0], g.fifo[g.head:]...)
		g.head = 0
	}
	return removed
}

// Flush applies every planned half-mutation and returns after all
// stripes are built — the barrier that makes the new epoch safe to
// hand to readers. Stripes are assigned to writers round-robin
// (stripe % writers); each writer takes one stripe lock at a time and
// drains that stripe's queue in plan order. Retention entries enter
// the GC queue only after the barrier.
func (a *Applier) Flush() {
	any := false
	for si := range a.queues {
		if len(a.queues[si]) > 0 {
			any = true
			break
		}
	}
	if any {
		if a.writers == 1 {
			a.applyStripes(0)
		} else {
			a.wg.Add(a.writers - 1)
			for w := 1; w < a.writers; w++ {
				a.work <- w
			}
			a.applyStripes(0)
			a.wg.Wait()
		}
		for si := range a.queues {
			a.queues[si] = a.queues[si][:0]
		}
	}
	if len(a.gcQ) > 0 {
		g := a.g
		g.gcMu.Lock()
		g.pending = append(g.pending, a.gcQ...)
		g.gcLocked()
		g.gcMu.Unlock()
		a.gcQ = a.gcQ[:0]
	}
	// The plan is applied: hazard checks fall through to the graph
	// again until the next BeginEpoch.
	clear(a.overlay)
}

// applyStripes drains every stripe queue assigned to writer w.
func (a *Applier) applyStripes(w int) {
	for si := w; si < numStripes; si += a.writers {
		q := a.queues[si]
		if len(q) == 0 {
			continue
		}
		mu := &a.g.stripes[si]
		mu.Lock()
		for i := range q {
			m := &q[i]
			a.tab.editSide(m.out, m.v, m.other, m.label, m.ts, m.del, a.epoch, a.minR)
		}
		mu.Unlock()
	}
}
