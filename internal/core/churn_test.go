// Delete/re-insert churn property test: randomized update streams with
// heavy explicit-deletion churn, differentially checked against the
// sequential core.Multi oracle, with a snapshot/restore round-trip
// taken mid-churn. Lives in package core_test (like the cross-engine
// differentials) because it drives the internal/shard coordinator.
package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/shard"
	"streamrpq/internal/window"
)

// TestChurnDifferential is the property test of canonical deletions:
// on seeded random streams whose tuples re-delete earlier edges with
// probability delRatio, the sharded engine must reproduce the
// sequential Multi oracle's full result stream — matches AND
// invalidations, with timestamps and triggering tuples, in canonical
// order — across shard counts and batch sizes, and survive a
// SnapshotState/RestoreState round-trip taken mid-churn (the restore
// path cross-checks the persisted support counts against the
// materialized trees, and CheckInvariants recomputes them from
// scratch).
func TestChurnDifferential(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+"}
	cases := []struct {
		name     string
		seed     int64
		n        int
		vertices int
		spec     window.Spec
		delRatio float64
		shards   int
		batch    int
	}{
		{"light-churn", 1111, 500, 9, window.Spec{Size: 25, Slide: 4}, 0.10, 2, 40},
		{"heavy-churn", 2222, 600, 7, window.Spec{Size: 20, Slide: 5}, 0.35, 4, 32},
		{"singleton-batches", 3333, 300, 8, window.Spec{Size: 15, Slide: 1}, 0.20, 1, 1},
		{"deep-pipeline", 4444, 600, 10, window.Spec{Size: 30, Slide: 6}, 0.25, 8, 64},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tuples := randomTuplesX(rand.New(rand.NewSource(tc.seed)), tc.n, tc.vertices, 2, 2, tc.delRatio)

			// Sequential Multi oracle, results tagged per (tuple, query).
			var want []shard.Result
			tupleIdx := 0
			multi, err := core.NewMulti(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for qi, expr := range exprs {
				sink := tagSink{tuple: &tupleIdx, qi: qi, out: &want}
				if _, err := multi.Add(bindX(t, expr, "a", "b"), core.WithSink(sink)); err != nil {
					t.Fatal(err)
				}
			}
			for i, tu := range tuples {
				tupleIdx = i
				multi.Process(tu)
			}
			sortCanonical(want)
			invals := 0
			for _, r := range want {
				if r.Invalidated {
					invals++
				}
			}
			if invals == 0 {
				t.Fatal("churn produced no invalidations; test is vacuous")
			}

			// Sharded run, interrupted mid-churn by a snapshot/restore
			// round-trip into a fresh engine.
			newEngine := func() (*shard.Engine, []*core.RAPQ) {
				s, err := shard.New(tc.spec, shard.WithShards(tc.shards))
				if err != nil {
					t.Fatal(err)
				}
				var members []*core.RAPQ
				for _, expr := range exprs {
					m, err := s.Add(bindX(t, expr, "a", "b"), nil)
					if err != nil {
						t.Fatal(err)
					}
					members = append(members, m)
				}
				return s, members
			}
			var have []shard.Result
			run := func(s *shard.Engine, from, to int) {
				for i := from; i < to; i += tc.batch {
					rs, err := s.ProcessBatch(tuples[i:min(i+tc.batch, to)])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rs {
						r.Tuple += i
						have = append(have, r)
					}
				}
			}
			mid := (tc.n / 2 / tc.batch) * tc.batch // batch boundary near the middle
			s1, _ := newEngine()
			run(s1, 0, mid)
			st := s1.SnapshotState()
			s1.Close()

			s2, members := newEngine()
			if err := s2.RestoreState(st); err != nil {
				t.Fatalf("mid-churn restore: %v", err)
			}
			for qi, m := range members {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("restored member %d (%s): %v", qi, exprs[qi], err)
				}
			}
			run(s2, mid, len(tuples))
			for qi, m := range members {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("final member %d (%s): %v", qi, exprs[qi], err)
				}
			}
			s2.Close()

			if !reflect.DeepEqual(want, have) {
				diverge := firstDifference(want, have)
				for i := max(0, diverge-3); i < min(len(want), len(have), diverge+5); i++ {
					t.Logf("[%d] want %+v  have %+v", i, want[i], have[i])
				}
				t.Fatalf("%s: sharded churn stream diverges from sequential Multi oracle (%d vs %d results, %d invalidations expected, first divergence at %d)",
					tc.name, len(want), len(have), invals, diverge)
			}
		})
	}
}
