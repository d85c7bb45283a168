package graph

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"streamrpq/internal/stream"
)

// lookupSide builds one vertex side at epoch e from point lookups
// (TSAt) over every key the history ever touched — the path that shares
// no code with the slab walk of AppendOutAt/AppendInAt — sorted.
func lookupSide(g *Graph, e Epoch, v stream.VertexID, keys []stream.EdgeKey, out bool) []HalfEdge {
	var side []HalfEdge
	seen := map[stream.EdgeKey]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		end, other := k.Dst, k.Src
		if out {
			end, other = k.Src, k.Dst
		}
		if ts, ok := g.TSAt(e, k); ok && end == v {
			side = append(side, HalfEdge{V: other, L: k.Label, TS: ts})
		}
	}
	sortHalf(side)
	return side
}

func sortHalf(hs []HalfEdge) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].V != hs[j].V {
			return hs[i].V < hs[j].V
		}
		if hs[i].L != hs[j].L {
			return hs[i].L < hs[j].L
		}
		return hs[i].TS < hs[j].TS
	})
}

func equalHalf(a, b []HalfEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendMatchesPointLookups: the buffer traversal agrees with point
// lookups, under a random mutation history with leased epochs, on every
// vertex and every still-leased epoch.
func TestAppendMatchesPointLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	type lease struct{ e Epoch }
	var leases []lease
	var keys []stream.EdgeKey
	for step := 0; step < 2000; step++ {
		switch {
		case len(keys) > 0 && rng.Float64() < 0.2:
			k := keys[rng.Intn(len(keys))]
			g.Delete(k)
		default:
			k := key(stream.VertexID(rng.Intn(30)), stream.VertexID(rng.Intn(30)), stream.LabelID(rng.Intn(3)))
			g.Insert(k.Src, k.Dst, k.Label, int64(step))
			keys = append(keys, k)
		}
		if rng.Float64() < 0.05 {
			e := g.AdvanceEpoch()
			g.AcquireEpoch(e)
			leases = append(leases, lease{e: e})
		}
		if len(leases) > 0 && rng.Float64() < 0.04 {
			i := rng.Intn(len(leases))
			g.ReleaseEpoch(leases[i].e)
			leases = append(leases[:i], leases[i+1:]...)
		}
	}
	check := func(e Epoch) {
		var buf []HalfEdge
		for v := stream.VertexID(0); v < 30; v++ {
			buf = g.AppendOutAt(e, v, buf[:0])
			got := append([]HalfEdge(nil), buf...)
			sortHalf(got)
			if want := lookupSide(g, e, v, keys, true); !equalHalf(got, want) {
				t.Fatalf("epoch %d vertex %d: AppendOutAt %v != TSAt lookups %v", e, v, got, want)
			}
			buf = g.AppendInAt(e, v, buf[:0])
			got = append([]HalfEdge(nil), buf...)
			sortHalf(got)
			if want := lookupSide(g, e, v, keys, false); !equalHalf(got, want) {
				t.Fatalf("epoch %d vertex %d: AppendInAt %v != TSAt lookups %v", e, v, got, want)
			}
		}
	}
	for _, l := range leases {
		check(l.e)
	}
	check(g.Epoch())
	for _, l := range leases {
		g.ReleaseEpoch(l.e)
	}
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after all leases released", n)
	}
}

// TestSlabLookupIndexPromotion: vertices past the linear-scan threshold
// build the lazy per-slab index; lookups, refreshes, and deletes stay
// correct through promotion and the swap-remove compaction it must
// survive.
func TestSlabLookupIndexPromotion(t *testing.T) {
	g := New()
	const hub = stream.VertexID(0)
	const n = 4 * lookupThreshold
	for i := 1; i <= n; i++ {
		g.Insert(hub, stream.VertexID(i), stream.LabelID(i%5), int64(i))
	}
	for i := 1; i <= n; i++ {
		k := key(hub, stream.VertexID(i), stream.LabelID(i%5))
		if ts, ok := g.TS(k); !ok || ts != int64(i) {
			t.Fatalf("TS(%v) = %d,%v want %d,true", k, ts, ok, i)
		}
	}
	// Delete every third edge (exercises swap-remove under the index),
	// then refresh every remaining edge.
	for i := 3; i <= n; i += 3 {
		if !g.Delete(key(hub, stream.VertexID(i), stream.LabelID(i%5))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 1; i <= n; i++ {
		k := key(hub, stream.VertexID(i), stream.LabelID(i%5))
		if i%3 == 0 {
			if _, ok := g.TS(k); ok {
				t.Fatalf("edge %d should be gone", i)
			}
			continue
		}
		g.Insert(k.Src, k.Dst, k.Label, int64(1000+i))
		if ts, ok := g.TS(k); !ok || ts != int64(1000+i) {
			t.Fatalf("refreshed TS(%v) = %d,%v want %d,true", k, ts, ok, 1000+i)
		}
	}
	if want := n - n/3; g.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
}

// TestOverflowArenaPrunes: superseded versions overflow into the arena
// only while a reader could still see them, and the arena drains back
// to zero once the last lease is released.
func TestOverflowArenaPrunes(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	e := g.AdvanceEpoch()
	g.AcquireEpoch(e)
	// Supersede the version epoch e sees, several times over.
	for i := 0; i < 5; i++ {
		g.AdvanceEpoch()
		g.Insert(1, 2, 0, int64(20+i))
	}
	if ts, ok := g.TSAt(e, key(1, 2, 0)); !ok || ts != 10 {
		t.Fatalf("leased epoch sees ts=%d,%v, want 10,true", ts, ok)
	}
	if g.DeadVersions() == 0 {
		t.Fatal("expected superseded versions retained for the lease")
	}
	g.ReleaseEpoch(e)
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after release, want 0", n)
	}
	if ts, ok := g.TS(key(1, 2, 0)); !ok || ts != 24 {
		t.Fatalf("current ts = %d,%v, want 24,true", ts, ok)
	}
}

// TestStripedConcurrentReaders: one writer mutating while reader
// goroutines traverse leased epochs through the buffer API; run under
// -race this pins the stripe-lock discipline.
func TestStripedConcurrentReaders(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.Insert(stream.VertexID(i%20), stream.VertexID((i+1)%20), 0, int64(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []HalfEdge
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := g.Epoch()
				g.AcquireEpoch(e)
				for i := 0; i < 20; i++ {
					v := stream.VertexID(rng.Intn(20))
					buf = g.AppendOutAt(e, v, buf[:0])
					buf = g.AppendInAt(e, v, buf[:0])
				}
				g.ReleaseEpoch(e)
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.3 {
			g.Delete(key(stream.VertexID(rng.Intn(20)), stream.VertexID(rng.Intn(20)), 0))
		} else {
			g.Insert(stream.VertexID(rng.Intn(20)), stream.VertexID(rng.Intn(20)), 0, int64(1000+step))
		}
		if step%100 == 0 {
			g.AdvanceEpoch()
		}
	}
	close(stop)
	wg.Wait()
	g.AdvanceEpoch()
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after quiescence, want 0", n)
	}
}
