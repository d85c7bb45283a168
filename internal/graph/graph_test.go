package graph

import (
	"math/rand"
	"testing"

	"streamrpq/internal/stream"
)

func key(s, d stream.VertexID, l stream.LabelID) stream.EdgeKey {
	return stream.EdgeKey{Src: s, Dst: d, Label: l}
}

func TestInsertAndLookup(t *testing.T) {
	g := New()
	if !g.Insert(1, 2, 0, 10) {
		t.Fatal("first insert should be new")
	}
	if g.Insert(1, 2, 0, 12) {
		t.Fatal("re-insert should not be new")
	}
	if ts, ok := g.TS(key(1, 2, 0)); !ok || ts != 12 {
		t.Fatalf("TS = %d,%v, want 12,true (refresh)", ts, ok)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.Insert(1, 2, 1, 13) // parallel edge, different label
	g.Insert(2, 1, 0, 14)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
}

func TestDelete(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(1, 3, 0, 11)
	if !g.Delete(key(1, 2, 0)) {
		t.Fatal("delete of present edge failed")
	}
	if g.Delete(key(1, 2, 0)) {
		t.Fatal("double delete should report absent")
	}
	if g.Delete(key(9, 9, 9)) {
		t.Fatal("delete of absent edge should report absent")
	}
	if g.Has(key(1, 2, 0)) {
		t.Fatal("deleted edge still present")
	}
	if !g.Has(key(1, 3, 0)) {
		t.Fatal("unrelated edge vanished")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestOutInIteration(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(1, 3, 1, 11)
	g.Insert(4, 1, 0, 12)

	outs := g.AppendOutAt(g.Epoch(), 1, nil)
	for _, he := range outs {
		if he.V != 2 && he.V != 3 {
			t.Errorf("unexpected out edge to %d", he.V)
		}
	}
	ins := g.AppendInAt(g.Epoch(), 1, nil)
	for _, he := range ins {
		if he.V != 4 {
			t.Errorf("unexpected in edge from %d", he.V)
		}
	}
	if len(outs) != 2 || len(ins) != 1 {
		t.Fatalf("outs=%d ins=%d, want 2,1", len(outs), len(ins))
	}

	// The caller's buffer is extended, not replaced.
	if both := g.AppendInAt(g.Epoch(), 1, outs); len(both) != 3 || both[0] != outs[0] {
		t.Fatalf("appending to a non-empty buffer = %v", both)
	}
}

func TestExpire(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(2, 3, 0, 20)
	g.Insert(3, 4, 0, 30)

	var removed []Edge
	n := g.Expire(20, func(e Edge) { removed = append(removed, e) })
	if n != 2 {
		t.Fatalf("Expire removed %d, want 2", n)
	}
	if len(removed) != 2 {
		t.Fatalf("callback saw %d edges, want 2", len(removed))
	}
	if !g.Has(key(3, 4, 0)) || g.Has(key(1, 2, 0)) || g.Has(key(2, 3, 0)) {
		t.Fatal("wrong edges expired")
	}
}

func TestExpireRefreshKeepsEdge(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(1, 2, 0, 25) // refresh before expiry
	if n := g.Expire(20, nil); n != 0 {
		t.Fatalf("Expire removed %d refreshed edges, want 0", n)
	}
	if !g.Has(key(1, 2, 0)) {
		t.Fatal("refreshed edge expired")
	}
	// The refreshed copy expires at its new timestamp.
	if n := g.Expire(25, nil); n != 1 {
		t.Fatalf("Expire removed %d, want 1", n)
	}
}

func TestExpireAfterDelete(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Delete(key(1, 2, 0))
	if n := g.Expire(100, nil); n != 0 {
		t.Fatalf("Expire of deleted edge removed %d, want 0", n)
	}
}

func TestVerticesUnion(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 1)
	g.Insert(3, 1, 0, 2)
	seen := map[stream.VertexID]bool{}
	g.Vertices(func(v stream.VertexID) bool {
		if seen[v] {
			t.Errorf("vertex %d visited twice", v)
		}
		seen[v] = true
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("saw %d vertices, want 3", len(seen))
	}
}

func TestClone(t *testing.T) {
	g := New()
	g.Insert(1, 2, 0, 10)
	g.Insert(2, 3, 1, 20)
	c := g.Clone()
	g.Delete(key(1, 2, 0))
	if !c.Has(key(1, 2, 0)) {
		t.Fatal("clone affected by original mutation")
	}
	if c.NumEdges() != 2 {
		t.Fatalf("clone has %d edges, want 2", c.NumEdges())
	}
}

// TestRandomizedAgainstModel runs a random op sequence against a naive
// map-based model.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New()
	model := map[stream.EdgeKey]int64{}
	ts := int64(0)
	for i := 0; i < 20000; i++ {
		ts += int64(rng.Intn(3))
		src := stream.VertexID(rng.Intn(20))
		dst := stream.VertexID(rng.Intn(20))
		l := stream.LabelID(rng.Intn(3))
		k := key(src, dst, l)
		switch rng.Intn(10) {
		case 0: // delete
			_, inModel := model[k]
			if got := g.Delete(k); got != inModel {
				t.Fatalf("step %d: Delete=%v, model=%v", i, got, inModel)
			}
			delete(model, k)
		case 1: // expire
			deadline := ts - int64(rng.Intn(10))
			g.Expire(deadline, nil)
			for mk, mts := range model {
				if mts <= deadline {
					delete(model, mk)
				}
			}
		default:
			g.Insert(src, dst, l, ts)
			model[k] = ts
		}
		if g.NumEdges() != len(model) {
			t.Fatalf("step %d: NumEdges=%d, model=%d", i, g.NumEdges(), len(model))
		}
	}
	// Final content comparison.
	count := 0
	g.Edges(func(e Edge) bool {
		count++
		mts, ok := model[key(e.Src, e.Dst, e.Label)]
		if !ok || mts != e.TS {
			t.Fatalf("edge %v not in model (model ts %d, ok %v)", e, mts, ok)
		}
		return true
	})
	if count != len(model) {
		t.Fatalf("graph has %d edges, model %d", count, len(model))
	}
}
