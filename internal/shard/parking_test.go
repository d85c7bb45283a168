package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// checkBoundary asserts what holds at every batch boundary: no worker's
// parking holds an array, and every group's Δ index is sound.
func checkBoundary(t *testing.T, s *Engine, when string) {
	t.Helper()
	for _, w := range s.workers {
		if n := w.park.Parked(); n != 0 {
			t.Fatalf("%s: shard %d's parking holds %d arrays", when, w.id, n)
		}
	}
	for gi, g := range s.groups {
		if err := g.engine.(*core.RAPQ).CheckInvariants(); err != nil {
			t.Fatalf("%s: group %d: %v", when, gi, err)
		}
	}
}

// TestParkingEmptyAtBatchBoundaries: on a slide-1 churn stream, where
// trees are dropped and regrown all the time, every worker's parking is
// empty after every batch, after every registration's bootstrap and
// after a restore, at one shard and at two, and the two runs return the
// same records.
func TestParkingEmptyAtBatchBoundaries(t *testing.T) {
	spec := window.Spec{Size: 6, Slide: 1}
	tuples := randomTuples(rand.New(rand.NewSource(46)), 1200, 10, 3, 1, 0.15)
	bs := batches(tuples, 16)
	first := []string{"(a/b)+", "a+", "(a|b)+"}
	later := map[int]string{10: "a/b*", 25: "(a/b)+", 40: "c*/a+", 55: "(b|c)+"}
	var runs [][]Result
	for _, shards := range []int{1, 2} {
		s, err := New(spec, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range first {
			if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
				t.Fatal(err)
			}
		}
		var all []Result
		drops := 0
		for bi, b := range bs {
			if expr, ok := later[bi]; ok {
				if _, err := s.Add(bind(t, expr, "a", "b", "c"), nil); err != nil {
					t.Fatal(err)
				}
				checkBoundary(t, s, "after registering "+expr)
			}
			before := s.Stats().Trees
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				r.Tuple += bi * 16
				all = append(all, r)
			}
			checkBoundary(t, s, "after a batch")
			if s.Stats().Trees < before {
				drops++
			}
		}
		if drops == 0 || len(all) == 0 {
			t.Fatalf("%d shards: %d results, %d batches dropped trees: the stream does not churn", shards, len(all), drops)
		}
		runs = append(runs, all)

		st := s.SnapshotState()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := New(spec, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, mb := range s.members {
			if _, err := r.Add(mb.bound, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		checkBoundary(t, r, "after a restore")
		r.Close()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("two-shard records differ from the one-shard ones")
	}
}

// TestCoordinatorTreeChurnAllocs is TestRAPQTreeChurnAllocs through the
// coordinator, one round per batch: the round's first tuple expires the
// whole previous round, so all 64 trees are dropped and grown again from
// their roots inside one batch. The dropped trees' arrays are parked and
// taken again, and a new tree takes a dropped one's slot of the engine's
// tree table: a batch allocates no per-tree record, only the few arrays
// that the growth order asks for before a tree of that capacity parks its
// own, 12 in all (66 when each tree was a heap record, 721 without the
// parking). The bound does not grow with the number of trees.
func TestCoordinatorTreeChurnAllocs(t *testing.T) {
	const n = 64
	s, err := New(window.Spec{Size: 1, Slide: 1}, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Add(bind(t, "a+", "a"), nil); err != nil {
		t.Fatal(err)
	}
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.Tuple{Src: stream.VertexID(i), Dst: stream.VertexID(i + 1)}
	}
	ts := int64(0)
	round := func() {
		ts += 2
		for i := range tuples {
			tuples[i].TS = ts
		}
		if _, err := s.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		round()
	}
	before := s.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := s.Stats()
	checkBoundary(t, s, "after the rounds")
	const pairs = n * (n + 1) / 2
	if after.Trees != n || after.Nodes != pairs+n || after.Results-before.Results != 51*pairs {
		t.Fatalf("not a steady state of tree churn:\nbefore %+v\n after %+v", before, after)
	}
	const bound = 12
	if avg > bound {
		t.Errorf("coordinator tree churn allocates %.0f per %d-tree batch, want at most %d", avg, n, bound)
	}
}
