package graph

import (
	"fmt"
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
// lookups, under a random history of batches, on every vertex and every
// epoch of the batch still open at the end.
func TestAppendMatchesPointLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	g.BeginBatch()
	epochs := []Epoch{g.AdvanceEpoch()} // the open batch's epochs
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
			epochs = append(epochs, g.AdvanceEpoch())
		}
		if rng.Float64() < 0.004 {
			g.EndBatch()
			g.BeginBatch()
			epochs = append(epochs[:0], g.AdvanceEpoch())
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
	for _, e := range epochs {
		check(e)
	}
	g.EndBatch()
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after EndBatch", n)
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

// TestOverflowArenaPrunes: the batch's first step refreshes in place;
// every later refresh keeps the version it supersedes in the arena —
// nothing is pruned inside a batch, so DeadVersions counts every kept
// version — and the arena drains back to zero at EndBatch.
func TestOverflowArenaPrunes(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.BeginBatch()
	e := g.AdvanceEpoch()
	g.Insert(1, 2, 0, 11) // in place: no reader reads before epoch 1
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after a first-step refresh, want 0", n)
	}
	// Supersede the version epoch e sees, several times over.
	for i := 0; i < 5; i++ {
		g.AdvanceEpoch()
		g.Insert(1, 2, 0, int64(20+i))
	}
	if ts, ok := g.TSAt(e, key(1, 2, 0)); !ok || ts != 11 {
		t.Fatalf("the batch's first epoch sees ts=%d,%v, want 11,true", ts, ok)
	}
	if n := g.DeadVersions(); n != 5 {
		t.Fatalf("DeadVersions = %d inside the batch, want 5", n)
	}
	if n := len(g.vers); n != 10 {
		t.Fatalf("arena holds %d versions, want 10 (5 per side)", n)
	}
	g.EndBatch()
	if n := g.DeadVersions(); n != 0 || len(g.vers) != 0 {
		t.Fatalf("DeadVersions = %d, arena %d after EndBatch, want 0 and 0", n, len(g.vers))
	}
	if ts, ok := g.TS(key(1, 2, 0)); !ok || ts != 24 {
		t.Fatalf("current ts = %d,%v, want 24,true", ts, ok)
	}
}

// TestStripedConcurrentReaders: the graph takes no lock, so a pool of
// long-lived readers, like the shard workers, may traverse slabs through
// the buffer API only inside the batch bracket, ordered by a job send
// after the batch's writes and a reply receive before EndBatch. Each
// reader counts, at every epoch of the batch, the half-edges on both
// sides of every vertex; both counts must equal NumEdges after that step.
// Run under -race this pins that reads share no mutable state with each
// other and that the bracket is the only ordering they need.
func TestStripedConcurrentReaders(t *testing.T) {
	const vertices, readers = 20, 4
	g := New()
	for i := 0; i < 100; i++ {
		g.Insert(stream.VertexID(i%vertices), stream.VertexID((i+1)%vertices), 0, int64(i))
	}
	type job struct {
		epochs []Epoch
		want   []int
	}
	jobs := make([]chan job, readers)
	replies := make(chan error, readers)
	var wg sync.WaitGroup
	for r := range jobs {
		jobs[r] = make(chan job)
		wg.Add(1)
		go func(jobs <-chan job) {
			defer wg.Done()
			var buf []HalfEdge
			for j := range jobs {
				var err error
				for i, e := range j.epochs {
					out, in := 0, 0
					for v := 0; v < vertices; v++ {
						buf = g.AppendOutAt(e, stream.VertexID(v), buf[:0])
						out += len(buf)
						buf = g.AppendInAt(e, stream.VertexID(v), buf[:0])
						in += len(buf)
					}
					if out != j.want[i] || in != j.want[i] {
						err = fmt.Errorf("epoch %d: %d out and %d in half-edges, want %d", e, out, in, j.want[i])
					}
				}
				replies <- err
			}
		}(jobs[r])
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 3000; {
		g.BeginBatch()
		var j job
		for s := 1 + rng.Intn(8); s > 0; s-- {
			j.epochs = append(j.epochs, g.AdvanceEpoch())
			for m := 0; m < 5; m, step = m+1, step+1 {
				k := key(stream.VertexID(rng.Intn(vertices)), stream.VertexID(rng.Intn(vertices)), 0)
				if rng.Float64() < 0.3 {
					g.Delete(k)
				} else {
					g.Insert(k.Src, k.Dst, 0, int64(1000+step))
				}
			}
			j.want = append(j.want, g.NumEdges())
		}
		for _, c := range jobs {
			c <- j
		}
		for range jobs {
			if err := <-replies; err != nil {
				t.Error(err)
			}
		}
		g.EndBatch()
	}
	for _, c := range jobs {
		close(c)
	}
	wg.Wait()
	if n := g.DeadVersions(); n != 0 {
		t.Fatalf("DeadVersions = %d after quiescence, want 0", n)
	}
}
