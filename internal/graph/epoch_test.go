package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"streamrpq/internal/stream"
)

// collectAt gathers the edge set visible at epoch e via AppendOutAt.
func collectAt(g *Graph, e Epoch, vertices int) map[Edge]struct{} {
	out := map[Edge]struct{}{}
	for v := 0; v < vertices; v++ {
		for _, he := range g.AppendOutAt(e, stream.VertexID(v), nil) {
			out[Edge{Src: stream.VertexID(v), Dst: he.V, Label: he.L, TS: he.TS}] = struct{}{}
		}
	}
	return out
}

// TestEpochVisibility: a reader holding an older epoch keeps seeing the
// pre-mutation state across refreshes, deletions and expiry, while the
// current epoch sees the newest state.
func TestEpochVisibility(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(2, 3, 0, 12)
	e0 := g.Epoch()
	g.AcquireEpoch(e0)

	e1 := g.AdvanceEpoch()
	g.Insert(1, 2, 0, 20) // refresh
	g.Delete(key(2, 3, 0))
	g.Insert(3, 4, 1, 21)

	if ts, ok := g.TSAt(e0, key(1, 2, 0)); !ok || ts != 10 {
		t.Fatalf("old epoch sees refreshed ts %d,%v, want 10,true", ts, ok)
	}
	if _, ok := g.TSAt(e0, key(2, 3, 0)); !ok {
		t.Fatal("old epoch lost a deleted edge")
	}
	if _, ok := g.TSAt(e0, key(3, 4, 1)); ok {
		t.Fatal("old epoch sees a future insert")
	}
	if ts, ok := g.TSAt(e1, key(1, 2, 0)); !ok || ts != 20 {
		t.Fatalf("current epoch sees ts %d,%v, want 20,true", ts, ok)
	}
	if _, ok := g.TSAt(e1, key(2, 3, 0)); ok {
		t.Fatal("current epoch sees a deleted edge")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (current epoch)", g.NumEdges())
	}

	// In-traversal agrees with Out-traversal at both epochs.
	in0 := g.AppendInAt(e0, 3, nil)
	if len(in0) != 1 || in0[0].V != 2 || in0[0].TS != 12 {
		t.Fatalf("AppendInAt(e0, 3) = %v", in0)
	}

	g.ReleaseEpoch(e0)
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("after last reader released: %d dead versions retained", dv)
	}
}

// TestEpochExpiryRetained: window expiry at a new epoch keeps expired
// edges visible to a reader of the previous epoch.
func TestEpochExpiryRetained(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 5)
	g.Insert(2, 3, 0, 20)
	e0 := g.Epoch()
	g.AcquireEpoch(e0)

	g.AdvanceEpoch()
	if n := g.Expire(10, nil); n != 1 {
		t.Fatalf("Expire removed %d, want 1", n)
	}
	if _, ok := g.TSAt(e0, key(1, 2, 0)); !ok {
		t.Fatal("reader lost an expired edge")
	}
	if g.Has(key(1, 2, 0)) {
		t.Fatal("expired edge still live at current epoch")
	}
	g.ReleaseEpoch(e0)
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after release", dv)
	}
}

// TestEpochGCCompaction is the epoch-GC property test: a versioned
// graph driven with epoch advances, reader acquire/release and
// interleaved hazards compacts — once the last reader of an epoch
// retires — to content identical to a never-versioned graph fed the
// same stream (same live edge set, same NumEdges/NumVertices, zero
// retained dead versions).
func TestEpochGCCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const vertices = 12
	for trial := 0; trial < 50; trial++ {
		versioned, plain := New(), New()
		ts := int64(0)
		type reader struct{ e Epoch }
		var readers []reader

		steps := 200 + rng.Intn(200)
		for i := 0; i < steps; i++ {
			// Writer advances one epoch per group of mutations.
			versioned.AdvanceEpoch()
			nMut := 1 + rng.Intn(4)
			for m := 0; m < nMut; m++ {
				ts += int64(rng.Intn(3))
				src := stream.VertexID(rng.Intn(vertices))
				dst := stream.VertexID(rng.Intn(vertices))
				l := stream.LabelID(rng.Intn(2))
				switch rng.Intn(12) {
				case 0:
					versioned.Delete(stream.EdgeKey{Src: src, Dst: dst, Label: l})
					plain.Delete(stream.EdgeKey{Src: src, Dst: dst, Label: l})
				case 1:
					deadline := ts - int64(rng.Intn(8))
					versioned.Expire(deadline, nil)
					plain.Expire(deadline, nil)
				default:
					versioned.Insert(src, dst, l, ts)
					plain.Insert(src, dst, l, ts)
				}
			}
			// Randomly acquire the new epoch and release old ones, like a
			// pipelined coordinator with bounded depth.
			if rng.Intn(2) == 0 {
				e := versioned.Epoch()
				versioned.AcquireEpoch(e)
				readers = append(readers, reader{e})
			}
			for len(readers) > 3 || (len(readers) > 0 && rng.Intn(3) == 0) {
				versioned.ReleaseEpoch(readers[0].e)
				readers = readers[1:]
			}
		}
		for _, r := range readers {
			versioned.ReleaseEpoch(r.e)
		}

		if dv := versioned.DeadVersions(); dv != 0 {
			t.Fatalf("trial %d: %d dead versions survive full reader retirement", trial, dv)
		}
		if versioned.ActiveReaders() != 0 {
			t.Fatalf("trial %d: readers leaked", trial)
		}
		got := collectAt(versioned, versioned.Epoch(), vertices)
		want := collectAt(plain, plain.Epoch(), vertices)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: versioned graph content diverged from never-versioned oracle:\ngot  %d edges\nwant %d edges", trial, len(got), len(want))
		}
		if versioned.NumEdges() != plain.NumEdges() {
			t.Fatalf("trial %d: NumEdges %d vs %d", trial, versioned.NumEdges(), plain.NumEdges())
		}
		if versioned.NumVertices() != plain.NumVertices() {
			t.Fatalf("trial %d: NumVertices %d vs %d", trial, versioned.NumVertices(), plain.NumVertices())
		}
	}
}

// TestEpochConcurrentReaders: readers traversing an acquired epoch race
// a writer applying later-epoch mutations; each reader must observe
// exactly its epoch's frozen edge set (checked under -race).
func TestEpochConcurrentReaders(t *testing.T) {
	g := New()
	const vertices = 10
	rng := rand.New(rand.NewSource(7))
	ts := int64(0)
	var wg sync.WaitGroup
	for round := 0; round < 60; round++ {
		g.AdvanceEpoch()
		for m := 0; m < 5; m++ {
			ts++
			src := stream.VertexID(rng.Intn(vertices))
			dst := stream.VertexID(rng.Intn(vertices))
			switch rng.Intn(10) {
			case 0:
				g.Delete(stream.EdgeKey{Src: src, Dst: dst, Label: 0})
			case 1:
				g.Expire(ts-5, nil)
			default:
				g.Insert(src, dst, 0, ts)
			}
		}
		e := g.Epoch()
		g.AcquireEpoch(e)
		want := collectAt(g, e, vertices) // before any later mutation
		wg.Add(1)
		go func(e Epoch, want map[Edge]struct{}) {
			defer wg.Done()
			defer g.ReleaseEpoch(e)
			got := collectAt(g, e, vertices)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d: concurrent reader saw a drifting snapshot (%d vs %d edges)", e, len(got), len(want))
			}
		}(e, want)
	}
	wg.Wait()
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after all readers released", dv)
	}
}

// TestEpochWritePathAllocs pins the steady-state allocation cost of the
// pipelined coordinator's write path: once the slabs, the FIFO and the
// GC queue have reached capacity, a cycle of AdvanceEpoch, an expiry
// sweep and 16 refreshes, written while the previous epoch is leased,
// must not allocate (FIFO, GC-queue and lease-ring compaction amortize
// to well under one allocation per cycle).
func TestEpochWritePathAllocs(t *testing.T) {
	g := New()
	ts := int64(0)
	lease := g.Epoch()
	g.AcquireEpoch(lease)
	cycle := func() {
		g.AdvanceEpoch()
		g.Expire(ts-40, nil)
		for v := 0; v < 16; v++ {
			ts++
			g.Insert(stream.VertexID(v), stream.VertexID((v+1)%16), 0, ts)
		}
		// Hand the new epoch to a reader and retire the previous one, as
		// a coordinator at pipeline depth 2 does.
		e := g.Epoch()
		g.AcquireEpoch(e)
		g.ReleaseEpoch(lease)
		lease = e
	}
	for i := 0; i < 300; i++ {
		cycle() // reach steady state: slabs, overflow arenas, FIFO, GC queue all warm
	}
	if avg := testing.AllocsPerRun(100, cycle); avg > 1 {
		t.Fatalf("write path allocates %.2f per epoch cycle, want ≤1", avg)
	}
	g.ReleaseEpoch(lease)
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after the last lease was released", dv)
	}
}

// TestEpochDeltaRebase drives the slabs' uint32 epoch deltas out of
// range: slabs written near epoch 0, the writer epoch moved past 2^32
// with recent leases held, then refreshes, deletions, inserts and an
// expiry in those old slabs, each of which rebases the slab it touches.
// Every leased epoch must keep its edge set, the current epoch must see
// the writes, and no dead version may survive the leases' release. A
// lease held across 2^32 epochs cannot be rebased away and must panic.
func TestEpochDeltaRebase(t *testing.T) {
	const vertices = 8
	g := New()
	for v := 0; v < vertices; v++ {
		g.AdvanceEpoch()
		g.Insert(stream.VertexID(v), stream.VertexID((v+1)%vertices), 0, int64(v))
		g.Insert(stream.VertexID(v), stream.VertexID((v+2)%vertices), 1, int64(v))
	}
	g.epoch.Store(1<<32 + 7)
	var leases []Epoch
	want := map[Epoch]map[Edge]struct{}{}
	lease := func() {
		e := g.Epoch()
		g.AcquireEpoch(e)
		leases = append(leases, e)
		want[e] = collectAt(g, e, vertices)
	}

	lease()
	g.AdvanceEpoch()
	g.Insert(0, 1, 0, 100) // refresh
	g.Delete(key(2, 4, 1))
	g.Insert(3, 5, 0, 101) // new edge between two old slabs
	lease()
	g.AdvanceEpoch()
	g.Insert(4, 5, 0, 102)             // refresh
	g.Delete(key(0, 1, 0))             // delete a refreshed edge
	if n := g.Expire(3, nil); n != 6 { // ts ≤ 3, minus the deleted (2,4,1)
		t.Fatalf("Expire removed %d edges, want 6", n)
	}

	for _, e := range leases {
		if got := collectAt(g, e, vertices); !reflect.DeepEqual(got, want[e]) {
			t.Fatalf("leased epoch %d changed across the rebase (%d vs %d edges)", e, len(got), len(want[e]))
		}
	}
	for _, c := range []struct {
		k    stream.EdgeKey
		ts   int64
		live bool
	}{
		{key(0, 1, 0), 0, false}, {key(2, 4, 1), 0, false}, {key(3, 4, 0), 0, false},
		{key(3, 5, 0), 101, true}, {key(4, 5, 0), 102, true}, {key(7, 1, 1), 7, true},
	} {
		if ts, ok := g.TS(c.k); ok != c.live || ts != c.ts {
			t.Fatalf("current epoch: TS(%v) = %d,%v, want %d,%v", c.k, ts, ok, c.ts, c.live)
		}
	}
	for _, e := range leases {
		g.ReleaseEpoch(e)
	}
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after the leases were released", dv)
	}

	stuck := New()
	stuck.Insert(1, 2, 0, 1)
	stuck.AcquireEpoch(stuck.Epoch())
	stuck.epoch.Store(1<<32 + 1)
	defer func() {
		const msg = "graph: epoch delta overflow: reader lease held across 2^32 epochs"
		if r := recover(); r != msg {
			t.Fatalf("write under a lease 2^32 epochs old: recovered %v, want panic %q", r, msg)
		}
	}()
	stuck.Insert(1, 2, 0, 2)
}

// TestEpochEdgesFold: Edges folds the version intervals back to the
// flat live edge set of the current epoch (what checkpoints serialize).
func TestEpochEdgesFold(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 1)
	g.AcquireEpoch(g.Epoch())
	g.AdvanceEpoch()
	g.Insert(1, 2, 0, 5)
	g.Insert(2, 3, 1, 6)
	g.Delete(key(1, 2, 0))

	var flat []Edge
	g.Edges(func(e Edge) bool { flat = append(flat, e); return true })
	sort.Slice(flat, func(i, j int) bool { return flat[i].TS < flat[j].TS })
	if len(flat) != 1 || flat[0] != (Edge{Src: 2, Dst: 3, Label: 1, TS: 6}) {
		t.Fatalf("folded edges = %v", flat)
	}
}
