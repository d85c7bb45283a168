package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// TestRAPQSnapshotRestoreMidStream: snapshot a RAPQ engine mid-stream,
// restore into a fresh engine, and run both to end-of-stream — the
// restored engine must produce the identical result suffix up to
// canonical per-timestamp order (node timestamps are a pure function of
// the stream; raw sequential emission order within one tuple follows
// tree ids, which a restore renumbers, which is why the facade's merge
// sorts) and pass the structural invariants.
func TestRAPQSnapshotRestoreMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, q := range []struct{ expr string }{{"a/b*"}, {"(a/b)+"}, {"a*"}} {
		a := bind(t, q.expr, "a", "b")
		for trial := 0; trial < 5; trial++ {
			tuples := randomTuples(rng, 160, 9, 2, 2, 0)
			cut := len(tuples) / 2
			spec := window.Spec{Size: 20, Slide: 3}

			full := NewCollector()
			ref := NewRAPQ(a, spec, WithSink(full))
			for _, tu := range tuples[:cut] {
				ref.Process(tu)
			}
			suffixStart := len(full.Matched)

			snap := ref.SnapshotState()
			edges := SnapshotEdges(ref.Graph())

			got := NewCollector()
			restored := NewRAPQ(a, spec, WithSink(got))
			if err := RestoreEdges(restored.Graph(), edges); err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: restored engine invariants: %v", trial, err)
			}

			for _, tu := range tuples[cut:] {
				ref.Process(tu)
				restored.Process(tu)
			}
			want := full.Matched[suffixStart:]
			if !reflect.DeepEqual(norm(want), norm(got.Matched)) {
				t.Fatalf("%s trial %d: restored suffix diverged:\nwant %v\ngot  %v",
					q.expr, trial, want, got.Matched)
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: invariants after resume: %v", trial, err)
			}
			rs, gs := ref.Stats(), restored.Stats()
			if rs.Trees != gs.Trees || rs.Nodes != gs.Nodes || rs.Results != gs.Results {
				t.Fatalf("trial %d: stats diverged: ref %+v restored %+v", trial, rs, gs)
			}
		}
	}
}

// norm canonicalizes a match sequence for comparison: matches are
// sorted by (TS, From, To). Timestamps are non-decreasing in emission
// order, so this only reorders within tie groups — exactly the order
// freedom the sequential engines have (and the sharded merge removes).
func norm(ms []Match) []Match {
	if len(ms) == 0 {
		return nil
	}
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// TestRAPQSnapshotDeterministic: two snapshots of the same engine state
// are deeply equal (trees and nodes are emitted in sorted order), which
// the checkpoint format relies on for reproducible files.
func TestRAPQSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bind(t, "(a|b)+", "a", "b")
	e := NewRAPQ(a, window.Spec{Size: 30, Slide: 2})
	for _, tu := range randomTuples(rng, 200, 8, 2, 1, 0) {
		e.Process(tu)
	}
	if !reflect.DeepEqual(e.SnapshotState(), e.SnapshotState()) {
		t.Fatal("two snapshots of one state differ")
	}
}

// TestRAPQRestoreValidation: restore rejects non-fresh engines and
// corrupt tree structures instead of building a broken index.
func TestRAPQRestoreValidation(t *testing.T) {
	a := bind(t, "a+", "a")
	spec := window.Spec{Size: 10, Slide: 1}
	e := NewRAPQ(a, spec)
	e.Process(stream.Tuple{TS: 1, Src: 0, Dst: 1, Label: 0})
	snap := e.SnapshotState()

	if err := e.RestoreState(snap); err == nil {
		t.Fatal("restore onto a used engine accepted")
	}

	bad := *snap
	bad.Trees = append([]TreeState(nil), snap.Trees...)
	bad.Trees[0].Nodes = append([]TreeNodeState(nil), bad.Trees[0].Nodes...)
	bad.Trees[0].Nodes[0].ParentV = 99 // dangling parent
	if err := NewRAPQ(a, spec).RestoreState(&bad); err == nil {
		t.Fatal("restore with dangling parent accepted")
	}
}

// TestRAPQRestoreRenumbersTrees: a restored engine numbers its trees in
// snapshot order, which is root order, while the engine it was taken
// from numbered them in the order they were created, reusing the ids of
// dropped trees. RAPQ visits a tuple's trees in id order, and the Δ work
// of one tree does not depend on another's within a tuple, so the
// numbering may change only the raw order of one tuple's emissions.
// Snapshot a mid-churn engine (window expiry and deletions drop trees
// and free their ids) and run the rest of the stream through it, through
// a restored copy and through a copy restored from the same snapshot
// with its trees shuffled, so numbered in neither order. Every tuple must
// give all three the same multiset of matches and of invalidations, and
// the copies the same Stats, InsertCalls included. Without deletions the
// uninterrupted engine's InsertCalls agree too; with them they need not,
// here as before trees were numbered: a restore lays out slots, sibling
// lists and the graph's adjacency canonically, and a deletion's repair
// breaks ties between equal offers in those orders.
func TestRAPQRestoreRenumbersTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, expr := range []string{"a+", "(a|b)+", "a/b*"} {
		for _, delRatio := range []float64{0, 0.1} {
			a := bind(t, expr, "a", "b")
			spec := window.Spec{Size: 12, Slide: 2}
			tuples := randomTuples(rng, 1200, 24, 2, 1, delRatio)
			cut := len(tuples) / 2

			ref := NewRAPQ(a, spec, WithSink(NewCollector()))
			for _, tu := range tuples[:cut] {
				ref.Process(tu)
			}
			restore := func(st *RAPQState) *RAPQ {
				e := NewRAPQ(a, spec, WithSink(NewCollector()))
				if err := RestoreEdges(e.Graph(), SnapshotEdges(ref.Graph())); err != nil {
					t.Fatal(err)
				}
				if err := e.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				return e
			}
			restored := restore(ref.SnapshotState())
			st := ref.SnapshotState()
			rng.Shuffle(len(st.Trees), func(i, j int) { st.Trees[i], st.Trees[j] = st.Trees[j], st.Trees[i] })
			shuffled := restore(st)
			renumbered := 0
			for _, id := range restored.allTrees() {
				root := restored.trees[id].root
				if ref.inv.rootTree(root) != id {
					renumbered++
				}
			}
			if renumbered == 0 || len(ref.freeIDs) == 0 {
				t.Fatalf("%s: no tree renumbered by the restore, %d free ids: no churn to test", expr, len(ref.freeIDs))
			}

			perTuple := func(e *RAPQ, tu stream.Tuple) (matched, retracted []Match) {
				c := e.sink.(*CollectorSink)
				m0, r0 := len(c.Matched), len(c.Retract)
				e.Process(tu)
				return norm(c.Matched[m0:]), norm(c.Retract[r0:])
			}
			for i, tu := range tuples[cut:] {
				wm, wr := perTuple(ref, tu)
				for _, e := range []*RAPQ{restored, shuffled} {
					if gm, gr := perTuple(e, tu); !reflect.DeepEqual(wm, gm) || !reflect.DeepEqual(wr, gr) {
						t.Fatalf("%s tuple %d: restored engine emits\n%v / %v\nwant %v / %v", expr, cut+i, gm, gr, wm, wr)
					}
				}
			}
			stats := func(e *RAPQ) Stats {
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				s := e.Stats()
				s.ExpiryTime = 0 // wall clock
				return s
			}
			ws, rs, ss := stats(ref), stats(restored), stats(shuffled)
			if rs != ss {
				t.Fatalf("%s: renumbered copies diverged:\n%+v\n%+v", expr, rs, ss)
			}
			if delRatio > 0 {
				ws.InsertCalls = rs.InsertCalls
			}
			if ws != rs {
				t.Fatalf("%s: stats diverged:\n ref %+v\n got %+v", expr, ws, rs)
			}
			if ws.ExpiryRuns == 0 || (delRatio > 0) != (ws.Invalidations > 0) {
				t.Fatalf("%s: stream too tame: %+v", expr, ws)
			}
		}
	}
}
