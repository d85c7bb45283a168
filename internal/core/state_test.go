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
// the stream since PR 1; raw sequential emission order within one
// timestamp is map-iteration dependent, which is why the facade's
// sharded merge sorts) and pass the structural invariants.
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
