package graph

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// TestEpochVisibility: an earlier epoch of the open batch keeps seeing
// the pre-mutation state across refreshes, deletions and inserts, while
// the current epoch sees the newest state.
func TestEpochVisibility(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(2, 3, 0, 12)
	g.BeginBatch()
	e0 := g.AdvanceEpoch() // a first step that writes nothing

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

	g.EndBatch()
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("after EndBatch: %d dead versions retained", dv)
	}
}

// TestEpochExpiryRetained: window expiry at a later step of the batch
// keeps expired edges visible to the batch's earlier epochs.
func TestEpochExpiryRetained(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 5)
	g.Insert(2, 3, 0, 20)
	g.BeginBatch()
	e0 := g.AdvanceEpoch()

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
	g.EndBatch()
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after EndBatch", dv)
	}
}

// TestBatchModel is the batch-bracket property test: a versioned graph
// and a plain one (never in a batch) take the same random batches of
// 1–8 steps, one epoch per step, mixing inserts, refreshes, deletions
// and expiry. Once a batch is written, concurrent readers of every step's
// epoch must see exactly the plain graph after that step (run under
// -race); after EndBatch no dead version survives; at the end both
// graphs have the same content, NumEdges and NumVertices.
func TestBatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const vertices = 12
	for trial := 0; trial < 20; trial++ {
		versioned, plain := New(), New()
		ts := int64(0)
		for batch := 0; batch < 40; batch++ {
			versioned.BeginBatch()
			epochs := make([]Epoch, 1+rng.Intn(8))
			want := make([]map[Edge]struct{}, len(epochs))
			for i := range epochs {
				epochs[i] = versioned.AdvanceEpoch()
				for m := 1 + rng.Intn(4); m > 0; m-- {
					ts += int64(rng.Intn(3))
					k := key(stream.VertexID(rng.Intn(vertices)), stream.VertexID(rng.Intn(vertices)), stream.LabelID(rng.Intn(2)))
					switch rng.Intn(12) {
					case 0:
						versioned.Delete(k)
						plain.Delete(k)
					case 1:
						deadline := ts - int64(rng.Intn(8))
						versioned.Expire(deadline, nil)
						plain.Expire(deadline, nil)
					default:
						versioned.Insert(k.Src, k.Dst, k.Label, ts)
						plain.Insert(k.Src, k.Dst, k.Label, ts)
					}
				}
				want[i] = collectAt(plain, plain.Epoch(), vertices)
			}
			var wg sync.WaitGroup
			for i, e := range epochs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := collectAt(versioned, e, vertices); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("trial %d batch %d step %d: epoch %d shows %d edges, the plain graph %d", trial, batch, i, e, len(got), len(want[i]))
					}
				}()
			}
			wg.Wait()
			versioned.EndBatch()
			if dv := versioned.DeadVersions(); dv != 0 {
				t.Fatalf("trial %d batch %d: %d dead versions after EndBatch", trial, batch, dv)
			}
		}
		if got, want := collectAt(versioned, versioned.Epoch(), vertices), collectAt(plain, plain.Epoch(), vertices); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: content %d edges, the plain graph %d", trial, len(got), len(want))
		}
		if versioned.NumEdges() != plain.NumEdges() || versioned.NumVertices() != plain.NumVertices() {
			t.Fatalf("trial %d: NumEdges %d vs %d, NumVertices %d vs %d", trial,
				versioned.NumEdges(), plain.NumEdges(), versioned.NumVertices(), plain.NumVertices())
		}
	}
}

// TestAppendWhereModel: the filtered traversal is exactly a filter. A
// versioned graph takes random batches as in TestBatchModel. Once a
// batch is written, concurrent readers of every step's epoch draw random
// label filters — nil (every label) or a mask of zero to all labels plus
// one entries, so labels past the end of a mask occur and must be
// dropped — and random timestamp bounds, and AppendOutWhere/AppendInWhere
// must return exactly the cells of AppendOutAt/AppendInAt that pass
// both: in the same order on a slab at or below lookupThreshold, and on
// an indexed slab as the same multiset, label by label ascending, and
// element by element as the same walk above math.MinInt64 filtered by
// the bound, which a quarter of the draws set to a cell's own timestamp.
// The small configuration never indexes a slab; the hub one sends most
// edges out of (and many into) three hubs with a long window, so their
// slabs are indexed and their runs churn through deletes, expiry and
// batch-end settling. After every batch each index must match its slab.
func TestAppendWhereModel(t *testing.T) {
	for _, cfg := range []struct {
		name             string
		vertices, labels int
		hubs             int // vertices 0…hubs-1
		hubOut, hubIn    int // chances in 4 that an edge leaves, enters a hub
		horizon          int // how far behind the clock expiry runs
		trials, batches  int
		wantIndexedWalks bool
	}{
		{"small", 12, 4, 0, 0, 0, 0, 10, 30, false},
		{"hubs", 40, 10, 3, 3, 2, 150, 4, 60, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			vertex := func(hubChance int) stream.VertexID {
				if rng.Intn(4) < hubChance {
					return stream.VertexID(rng.Intn(cfg.hubs))
				}
				return stream.VertexID(rng.Intn(cfg.vertices))
			}
			filter := func(all []HalfEdge, want Labels, after int64) []HalfEdge {
				var out []HalfEdge
				for _, he := range all {
					if want.Has(he.L) && he.TS > after {
						out = append(out, he)
					}
				}
				return out
			}
			var indexedWalks atomic.Int64
			for trial := 0; trial < cfg.trials; trial++ {
				g := New()
				ts := int64(0)
				for batch := 0; batch < cfg.batches; batch++ {
					g.BeginBatch()
					epochs := make([]Epoch, 1+rng.Intn(8))
					for i := range epochs {
						epochs[i] = g.AdvanceEpoch()
						for m := 1 + rng.Intn(4); m > 0; m-- {
							ts += int64(rng.Intn(3))
							k := key(vertex(cfg.hubOut), vertex(cfg.hubIn), stream.LabelID(rng.Intn(cfg.labels)))
							switch rng.Intn(12) {
							case 0:
								g.Delete(k)
							case 1:
								g.Expire(ts-int64(cfg.horizon+rng.Intn(8)), nil)
							default:
								g.Insert(k.Src, k.Dst, k.Label, ts)
							}
						}
					}
					var wg sync.WaitGroup
					for _, e := range epochs {
						r, now := rand.New(rand.NewSource(rng.Int63())), ts
						wg.Add(1)
						go func() {
							defer wg.Done()
							var all, got, unbounded []HalfEdge
							check := func(name string, out bool, v stream.VertexID, want Labels, after int64) {
								exp := filter(all, want, after)
								if s := g.tab.slab(out, v); s == nil || s.big == nil || want.mask == nil {
									if !slices.Equal(got, exp) {
										t.Errorf("trial %d batch %d epoch %d: %s(%d, %v, %d) = %v, want %v", trial, batch, e, name, v, want.mask, after, got, exp)
									}
									return
								}
								indexedWalks.Add(1)
								sorted := slices.Clone(got)
								sortHalf(sorted)
								sortHalf(exp)
								if !slices.Equal(sorted, exp) || !slices.IsSortedFunc(got, func(a, b HalfEdge) int { return int(a.L) - int(b.L) }) {
									t.Errorf("trial %d batch %d epoch %d: indexed %s(%d, %v, %d) = %v, want %v label by label", trial, batch, e, name, v, want.mask, after, got, exp)
								}
								// The bound only filters: the walk from the run's
								// first cell above after yields the unbounded
								// walk's cells above after, in its order.
								unbounded = g.appendSide(out, e, v, want, math.MinInt64, unbounded[:0])
								if exp := filter(unbounded, Labels{}, after); !slices.Equal(got, exp) {
									t.Errorf("trial %d batch %d epoch %d: indexed %s(%d, %v, %d) = %v, want the unbounded walk's %v in order", trial, batch, e, name, v, want.mask, after, got, exp)
								}
							}
							// bound draws a timestamp bound, a quarter of the
							// time one of the side's own timestamps (a tie).
							bound := func() int64 {
								if len(all) > 0 && r.Intn(4) == 0 {
									return all[r.Intn(len(all))].TS
								}
								return now - int64(r.Intn(cfg.horizon+12))
							}
							for v := range stream.VertexID(cfg.vertices) {
								var want Labels
								if r.Intn(8) > 0 {
									mask := make([]bool, r.Intn(cfg.labels+2))
									for l := range mask {
										mask[l] = r.Intn(2) == 0
									}
									want = NewLabels(mask)
								}
								all = g.AppendOutAt(e, v, all[:0])
								after := bound()
								got = g.AppendOutWhere(e, v, want, after, got[:0])
								check("AppendOutWhere", true, v, want, after)
								all = g.AppendInAt(e, v, all[:0])
								after = bound()
								got = g.AppendInWhere(e, v, want, after, got[:0])
								check("AppendInWhere", false, v, want, after)
							}
						}()
					}
					wg.Wait()
					g.EndBatch()
					if err := checkIndexes(g); err != nil {
						t.Fatalf("trial %d batch %d: %v", trial, batch, err)
					}
				}
			}
			if n := indexedWalks.Load(); (n > 0) != cfg.wantIndexedWalks {
				t.Fatalf("%d filtered walks of indexed slabs, want some: %v", n, cfg.wantIndexedWalks)
			}
		})
	}
}

// TestEpochGCCompaction is the epoch-GC property test across both write
// paths: one versioned graph takes a random stream in which batched
// stretches (BeginBatch … EndBatch, one epoch per step) alternate with
// unbatched steps (the in-place writes of restore and of the standalone
// engines, at epoch 0). No superseded version may outlive its batch —
// none is retained after an unbatched step or after EndBatch — and at
// the end the graph holds the same content, NumEdges and NumVertices as
// a never-versioned graph fed the same stream.
func TestEpochGCCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const vertices = 12
	for trial := 0; trial < 50; trial++ {
		versioned, plain := New(), New()
		ts := int64(0)
		step := func(batched bool) {
			if batched {
				versioned.AdvanceEpoch()
			}
			for m := 1 + rng.Intn(4); m > 0; m-- {
				ts += int64(rng.Intn(3))
				k := key(stream.VertexID(rng.Intn(vertices)), stream.VertexID(rng.Intn(vertices)), stream.LabelID(rng.Intn(2)))
				switch rng.Intn(12) {
				case 0:
					versioned.Delete(k)
					plain.Delete(k)
				case 1:
					deadline := ts - int64(rng.Intn(8))
					versioned.Expire(deadline, nil)
					plain.Expire(deadline, nil)
				default:
					versioned.Insert(k.Src, k.Dst, k.Label, ts)
					plain.Insert(k.Src, k.Dst, k.Label, ts)
				}
			}
		}
		for i, n := 0, 40+rng.Intn(40); i < n; i++ {
			if rng.Intn(3) == 0 {
				step(false)
				if dv := versioned.DeadVersions(); dv != 0 {
					t.Fatalf("trial %d: %d dead versions after an unbatched step", trial, dv)
				}
				continue
			}
			versioned.BeginBatch()
			for s := 1 + rng.Intn(8); s > 0; s-- {
				step(true)
			}
			versioned.EndBatch()
			if dv := versioned.DeadVersions(); dv != 0 {
				t.Fatalf("trial %d: %d dead versions survive EndBatch", trial, dv)
			}
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

// TestEpochConcurrentReaders: each step's epoch is snapshotted right
// after the step's writes, before any later mutation of the batch; once
// the batch is written, several readers per epoch traverse it
// concurrently, Out and In sides, and each must observe exactly the
// epoch's frozen edge set (checked under -race).
func TestEpochConcurrentReaders(t *testing.T) {
	g := New()
	const vertices = 10
	rng := rand.New(rand.NewSource(7))
	ts := int64(0)
	collectIn := func(e Epoch) map[Edge]struct{} {
		in := map[Edge]struct{}{}
		for v := 0; v < vertices; v++ {
			for _, he := range g.AppendInAt(e, stream.VertexID(v), nil) {
				in[Edge{Src: he.V, Dst: stream.VertexID(v), Label: he.L, TS: he.TS}] = struct{}{}
			}
		}
		return in
	}
	for round := 0; round < 20; round++ {
		g.BeginBatch()
		var epochs []Epoch
		var want []map[Edge]struct{}
		for s := 1 + rng.Intn(6); s > 0; s-- {
			e := g.AdvanceEpoch()
			for m := 0; m < 5; m++ {
				ts++
				k := key(stream.VertexID(rng.Intn(vertices)), stream.VertexID(rng.Intn(vertices)), 0)
				switch rng.Intn(10) {
				case 0:
					g.Delete(k)
				case 1:
					g.Expire(ts-5, nil)
				default:
					g.Insert(k.Src, k.Dst, 0, ts)
				}
			}
			epochs = append(epochs, e)
			want = append(want, collectAt(g, e, vertices)) // before any later mutation
		}
		var wg sync.WaitGroup
		for i, e := range epochs {
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := collectAt(g, e, vertices); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("epoch %d: concurrent reader saw a drifting snapshot (%d vs %d edges)", e, len(got), len(want[i]))
					}
					if got := collectIn(e); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("epoch %d: In side disagrees with the Out snapshot (%d vs %d edges)", e, len(got), len(want[i]))
					}
				}()
			}
		}
		wg.Wait()
		g.EndBatch()
	}
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after the last EndBatch", dv)
	}
}

// TestEpochWritePathAllocs pins the steady-state allocation cost of the
// coordinator's write path: once the slabs, the version arena, the FIFO
// and the pending queue have reached capacity, a batch
// of four steps — each an AdvanceEpoch, an expiry sweep and 16
// refreshes, three of them superseding versions the batch keeps — must
// allocate at most once (FIFO compaction amortizes to well under one
// allocation per batch).
func TestEpochWritePathAllocs(t *testing.T) {
	g := New()
	ts := int64(0)
	batch := func() {
		g.BeginBatch()
		for step := 0; step < 4; step++ {
			g.AdvanceEpoch()
			g.Expire(ts-40, nil)
			for v := 0; v < 16; v++ {
				ts++
				g.Insert(stream.VertexID(v), stream.VertexID((v+1)%16), 0, ts)
			}
		}
		g.EndBatch()
	}
	for i := 0; i < 300; i++ {
		batch() // reach steady state
	}
	if avg := testing.AllocsPerRun(100, batch); avg > 1 {
		t.Fatalf("write path allocates %.2f per batch, want ≤1", avg)
	}
	if dv := g.DeadVersions(); dv != 0 {
		t.Fatalf("%d dead versions after EndBatch", dv)
	}

	// An indexed hub whose rare labels come and go: every step refreshes
	// the hub's 30 label-0 edges, adds an edge of one of eight rare
	// labels and deletes the previous step's, so a label run empties and
	// refills at every step and batch end. A run that empties keeps its
	// id and the index keeps no per-run array, so this allocates no more
	// than the plain batch.
	const hub = stream.VertexID(16)
	prev := stream.LabelID(1)
	hubBatch := func() {
		g.BeginBatch()
		for step := 0; step < 4; step++ {
			g.AdvanceEpoch()
			g.Expire(ts-40, nil)
			for v := 0; v < 30; v++ {
				ts++
				g.Insert(hub, stream.VertexID(100+v), 0, ts)
			}
			rare := 1 + prev%8
			g.Insert(hub, 200, rare, ts)
			g.Delete(key(hub, 200, prev))
			prev = rare
		}
		g.EndBatch()
	}
	for i := 0; i < 300; i++ {
		hubBatch()
	}
	if s := g.tab.out[hub]; s.big == nil || len(s.big.heads) != 9 {
		t.Fatalf("the hub's slab is not indexed over 9 labels")
	}
	if avg := testing.AllocsPerRun(100, hubBatch); avg > 1 {
		t.Fatalf("write path allocates %.2f per batch on an indexed hub, want ≤1", avg)
	}
	if err := checkIndexes(g); err != nil {
		t.Fatal(err)
	}
}

// TestEpochBatchScoped: the epoch counts the steps of the open batch.
// A batch's steps keep what they supersede in the arena, EndBatch
// restarts the epoch at 0 with the arena empty and every cell settled —
// so the next batch's first epoch sees everything the last one wrote —
// and AdvanceEpoch panics outside a batch and past 2^32-2 steps in one.
func TestEpochBatchScoped(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 1)
	g.BeginBatch()
	g.AdvanceEpoch()
	g.Insert(2, 3, 0, 2) // the first step writes in place
	g.AdvanceEpoch()
	g.Insert(1, 2, 0, 3) // refresh
	g.Insert(3, 4, 0, 4) // new cell, stamped with epoch 2
	g.Delete(key(2, 3, 0))
	if len(g.vers) != 2 || g.DeadVersions() != 2 {
		t.Fatalf("inside the batch: %d arena entries and %d dead versions, want 2 and 2", len(g.vers), g.DeadVersions())
	}
	g.EndBatch()
	if g.Epoch() != 0 || len(g.vers) != 0 || len(g.pending) != 0 || g.DeadVersions() != 0 {
		t.Fatalf("after EndBatch: epoch %d, %d arena entries, %d pending keys, %d dead versions; want all 0",
			g.Epoch(), len(g.vers), len(g.pending), g.DeadVersions())
	}
	g.BeginBatch()
	e := g.AdvanceEpoch()
	if got, want := collectAt(g, e, 5), map[Edge]struct{}{{1, 2, 0, 3}: {}, {3, 4, 0, 4}: {}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the next batch's first epoch sees %v, want %v", got, want)
	}

	g.epoch = maxEpoch - 1
	g.AdvanceEpoch() // step 2^32-2 is the last one
	mustPanic(t, "graph: more than 2^32-2 steps in one batch", func() { g.AdvanceEpoch() })
	g.EndBatch()
	mustPanic(t, "graph: AdvanceEpoch outside a batch", func() { g.AdvanceEpoch() })
}

func mustPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != msg {
			t.Fatalf("recovered %v, want panic %q", r, msg)
		}
	}()
	f()
}

// TestEpochEdgesFold: Edges folds the version intervals back to the
// flat live edge set of the current epoch (what checkpoints serialize),
// even while the batch keeps superseded versions.
func TestEpochEdgesFold(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 1)
	g.BeginBatch()
	g.AdvanceEpoch()
	g.AdvanceEpoch()
	g.Insert(1, 2, 0, 5)
	g.Insert(2, 3, 1, 6)
	g.Delete(key(1, 2, 0))
	if g.DeadVersions() == 0 {
		t.Fatal("the batch kept no superseded version")
	}

	var flat []Edge
	g.Edges(func(e Edge) bool { flat = append(flat, e); return true })
	sort.Slice(flat, func(i, j int) bool { return flat[i].TS < flat[j].TS })
	if len(flat) != 1 || flat[0] != (Edge{Src: 2, Dst: 3, Label: 1, TS: 6}) {
		t.Fatalf("folded edges = %v", flat)
	}
}
