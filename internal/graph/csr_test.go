package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

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

// checkIndexes checks every slab's bigIndex against its cells: a slab
// past lookupThreshold has one; lookup maps each cell's (other,label) to
// its index and holds nothing else; labels ascend strictly, each naming
// its own run; and walking every run from its head lists every cell
// once, under its own label, ascending by timestamp, with each link's
// prev the cell before it, and ends at the run's tail.
func checkIndexes(g *Graph) error {
	for side, slabs := range [][]*slab{g.tab.out, g.tab.in} {
		for v, s := range slabs {
			if s == nil {
				continue
			}
			b := s.big
			if b == nil {
				if len(s.edges) > lookupThreshold {
					return fmt.Errorf("side %d vertex %d: %d cells and no index", side, v, len(s.edges))
				}
				continue
			}
			if len(b.lookup) != len(s.edges) || len(b.links) != len(s.edges) {
				return fmt.Errorf("side %d vertex %d: %d keys and %d links for %d cells", side, v, len(b.lookup), len(b.links), len(s.edges))
			}
			for i := range s.edges {
				pe := &s.edges[i]
				if j, ok := b.lookup[packHalf(stream.VertexID(pe.other), stream.LabelID(pe.label))]; !ok || j != int32(i) {
					return fmt.Errorf("side %d vertex %d: cell %d looks up as %d,%v", side, v, i, j, ok)
				}
			}
			if len(b.ids) != len(b.labels) || len(b.heads) != len(b.labels) || len(b.tails) != len(b.labels) {
				return fmt.Errorf("side %d vertex %d: %d labels, %d ids, %d heads, %d tails", side, v, len(b.labels), len(b.ids), len(b.heads), len(b.tails))
			}
			seen := make([]bool, len(s.edges))
			runs := make([]bool, len(b.heads))
			for k, l := range b.labels {
				if k > 0 && b.labels[k-1] >= l {
					return fmt.Errorf("side %d vertex %d: labels %v not strictly ascending", side, v, b.labels)
				}
				id := b.ids[k]
				if runs[id] {
					return fmt.Errorf("side %d vertex %d: run %d named twice", side, v, id)
				}
				runs[id] = true
				prev := ^id
				for c := b.heads[id]; c >= 0; prev, c = c, b.links[c].next {
					if int(c) >= len(s.edges) || seen[c] || s.edges[c].label != l || b.links[c].prev != prev ||
						prev >= 0 && s.edges[prev].ts > s.edges[c].ts {
						return fmt.Errorf("side %d vertex %d: run of label %d reaches cell %d wrongly", side, v, l, c)
					}
					seen[c] = true
				}
				if last := max(prev, -1); b.tails[id] != last || last >= 0 && b.links[last].next != ^id {
					return fmt.Errorf("side %d vertex %d: run of label %d ends at %d, its tail is %d", side, v, l, last, b.tails[id])
				}
			}
			if i := slices.Index(seen, false); i >= 0 {
				return fmt.Errorf("side %d vertex %d: cell %d in no run", side, v, i)
			}
		}
	}
	return nil
}

// TestCellAndSlabSize pins the 32-byte cell and slab header: the label
// runs sit behind the index pointer, outside both.
func TestCellAndSlabSize(t *testing.T) {
	if n := unsafe.Sizeof(packedEdge{}); n != 32 {
		t.Fatalf("packedEdge is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(slab{}); n != 32 {
		t.Fatalf("slab is %d bytes, want 32", n)
	}
}

// TestSlabLookupIndexPromotion: vertices past the linear-scan threshold
// build the lazy per-slab index; lookups, refreshes, deletes and every
// label's filtered walk stay correct through promotion and the
// swap-remove compaction it must survive.
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
	// walks checks each label's filtered walk, alone and with the next
	// label, against the cells the loop above and below left: i%3 != 0
	// ones after the deletes, at ts(i).
	walks := func(stage string, ts func(i int) int64, gone func(i int) bool) {
		t.Helper()
		if err := checkIndexes(g); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		var buf []HalfEdge
		for l := 0; l < 5; l++ {
			mask := make([]bool, 5)
			mask[l], mask[(l+1)%5] = true, l%2 == 0
			var want []HalfEdge
			for i := 1; i <= n; i++ {
				if mask[i%5] && !gone(i) {
					want = append(want, HalfEdge{V: stream.VertexID(i), L: stream.LabelID(i % 5), TS: ts(i)})
				}
			}
			buf = g.AppendOutWhere(g.Epoch(), hub, NewLabels(mask), math.MinInt64, buf[:0])
			if !slices.IsSortedFunc(buf, func(a, b HalfEdge) int { return int(a.L) - int(b.L) }) {
				t.Fatalf("%s: mask %v walks %v, not label by label", stage, mask, buf)
			}
			got := slices.Clone(buf)
			sortHalf(got)
			sortHalf(want)
			if !equalHalf(got, want) {
				t.Fatalf("%s: mask %v walks %v, want %v", stage, mask, got, want)
			}
		}
	}
	walks("inserted", func(i int) int64 { return int64(i) }, func(int) bool { return false })
	// Delete every third edge (exercises swap-remove under the index),
	// then refresh every remaining edge.
	for i := 3; i <= n; i += 3 {
		if !g.Delete(key(hub, stream.VertexID(i), stream.LabelID(i%5))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	deleted := func(i int) bool { return i%3 == 0 }
	walks("deleted", func(i int) int64 { return int64(i) }, deleted)
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
	walks("refreshed", func(i int) int64 { return int64(1000 + i) }, deleted)
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

// BenchmarkAppendOutWhereHub is the filtered walk of one indexed hub:
// an out slab of 500 cells over Zipf-drawn labels (a few common labels,
// a long tail of rare ones), walked with filters of one to three labels
// drawn uniformly, so most filters want rare labels, as a query's state
// does on yago-sparse. Each filter's walk must equal the masked
// unfiltered walk as a multiset.
func BenchmarkAppendOutWhereHub(b *testing.B) {
	const hub, labels = stream.VertexID(0), 100
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.1, 1, labels-1)
	g := New()
	for ts := int64(0); g.NumEdges() < 500; ts++ {
		g.Insert(hub, stream.VertexID(1+rng.Intn(1000)), stream.LabelID(zipf.Uint64()), ts)
	}
	filters := make([]Labels, 16)
	var buf []HalfEdge
	for f := range filters {
		mask := make([]bool, labels)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			mask[rng.Intn(labels)] = true
		}
		filters[f] = NewLabels(mask)
		var want []HalfEdge
		for _, he := range g.AppendOutAt(g.Epoch(), hub, nil) {
			if mask[he.L] {
				want = append(want, he)
			}
		}
		buf = g.AppendOutWhere(g.Epoch(), hub, filters[f], math.MinInt64, buf[:0])
		got := slices.Clone(buf)
		sortHalf(got)
		sortHalf(want)
		if !equalHalf(got, want) {
			b.Fatalf("filter %v walks %v, want %v", mask, got, want)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendOutWhere(g.Epoch(), hub, filters[i%len(filters)], math.MinInt64, buf[:0])
	}
}
