package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// runWriters drives one engine configuration over the stream and
// returns the full merged result sequence (stream-global tuple
// indices), asserting the engine quiesces (no reader epochs, no dead
// versions) at the end.
func runWriters(t *testing.T, spec window.Spec, exprs []string, tuples []stream.Tuple, shards, depth, writers, batch int) []Result {
	t.Helper()
	s, err := New(spec, WithShards(shards), WithPipelineDepth(depth), WithWriters(writers))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumWriters() != writers {
		t.Fatalf("NumWriters() = %d, want %d", s.NumWriters(), writers)
	}
	for _, expr := range exprs {
		if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
	}
	var all []Result
	for bi, b := range batches(tuples, batch) {
		rs, err := s.ProcessBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			r.Tuple += bi * batch
			all = append(all, r)
		}
		if n := s.Graph().DeadVersions(); n != 0 {
			t.Fatalf("writers=%d shards=%d depth=%d: %d dead versions retained after a drained batch", writers, shards, depth, n)
		}
	}
	if n := s.Graph().ActiveReaders(); n != 0 {
		t.Fatalf("writers=%d shards=%d depth=%d: %d reader epochs still active after drain", writers, shards, depth, n)
	}
	return all
}

// TestMultiWriterByteIdentical is the multi-writer acceptance
// differential: on a hazard-heavy churn stream (20% deletions, tied
// timestamps, frequent expiry) the merged result stream at writer
// counts 2/4/8 must be byte-identical — results, order, timestamps,
// invalidations — to the writers=1 engine at every shards × depth
// configuration. Stripe-parallel epoch construction must be completely
// invisible in the output. At one shard and depth 1 the writers=1
// engine is the inline schedule, which agrees with the multi-writer
// runs in the timestamp-keyed form (tie-group attribution is the one
// thing tuple-at-a-time evaluation changes).
func TestMultiWriterByteIdentical(t *testing.T) {
	exprs := []string{"(a/b)+", "a/b*", "(a|b)+"}
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(777)), 700, 7, 2, 1, 0.20)

	for _, shards := range []int{1, 2, 8} {
		for _, depth := range []int{1, 2, 4} {
			var base, inline []Result
			for _, writers := range []int{1, 2, 4, 8} {
				got := runWriters(t, spec, exprs, tuples, shards, depth, writers, 23)
				if len(got) == 0 {
					t.Fatal("no results produced; test is vacuous")
				}
				switch {
				case shards == 1 && depth == 1 && writers == 1:
					inline = got
				case base == nil:
					base = got
				case !reflect.DeepEqual(base, got):
					t.Fatalf("shards=%d depth=%d writers=%d: result stream diverged from single-writer engine (%d vs %d results)",
						shards, depth, writers, len(got), len(base))
				}
			}
			if inline != nil && !reflect.DeepEqual(byTimestamp(tuples, base), byTimestamp(tuples, inline)) {
				t.Fatalf("shards=%d depth=%d: inline stream diverged from the multi-writer engines beyond tie-group attribution", shards, depth)
			}
		}
	}
}

// TestMultiWriterOracle cross-checks the multi-writer engine against
// the sequential oracle on heavier churn (30% deletions): the pair
// sets must agree exactly, member invariants must hold at every batch
// boundary, and every invalidation must retract a previously emitted
// pair. (With explicit deletions the byte-level contract across
// *shard* counts reduces to these shape-independent observables; the
// writers dimension itself is byte-exact, covered above.)
func TestMultiWriterOracle(t *testing.T) {
	spec := window.Spec{Size: 25, Slide: 5}
	tuples := randomTuples(rand.New(rand.NewSource(515)), 700, 7, 2, 1, 0.30)

	ref := core.NewCollector()
	seq := core.NewRAPQ(bind(t, "(a/b)+", "a", "b"), spec, core.WithSink(ref))
	for _, tu := range tuples {
		seq.Process(tu)
	}

	for _, shards := range []int{1, 8} {
		for _, writers := range []int{2, 8} {
			got := core.NewCollector()
			s, err := New(spec, WithShards(shards), WithPipelineDepth(2), WithWriters(writers))
			if err != nil {
				t.Fatal(err)
			}
			member, err := s.Add(bind(t, "(a/b)+", "a", "b"), got)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches(tuples, 23) {
				if _, err := s.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
				if err := member.CheckInvariants(); err != nil {
					t.Fatalf("shards=%d writers=%d: %v", shards, writers, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Pairs(), got.Pairs()) {
				t.Fatalf("shards=%d writers=%d: pair sets differ from sequential oracle", shards, writers)
			}
			pairs := got.Pairs()
			for _, inval := range got.Retract {
				if _, ok := pairs[core.Pair{From: inval.From, To: inval.To}]; !ok {
					t.Fatalf("shards=%d writers=%d: invalidated pair %v was never matched", shards, writers, inval)
				}
			}
		}
	}
}

// TestMultiWriterSnapshotWriterCountFree: a checkpoint taken from a
// multi-writer engine mid-stream is identical to one taken from the
// single-writer engine at the same batch boundary — stripe-parallel
// construction leaves no residue in the folded graph or the clocks —
// and restoring it into an engine of a third writer count continues
// the stream byte-identically.
func TestMultiWriterSnapshotWriterCountFree(t *testing.T) {
	exprs := []string{"(a/b)+", "b/a*"}
	spec := window.Spec{Size: 18, Slide: 3}
	tuples := randomTuples(rand.New(rand.NewSource(808)), 600, 6, 2, 1, 0.18)
	half := len(tuples) / 2

	mkEngine := func(writers int) *Engine {
		s, err := New(spec, WithShards(4), WithPipelineDepth(2), WithWriters(writers))
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			if _, err := s.Add(bind(t, expr, "a", "b"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	run := func(s *Engine, tuples []stream.Tuple) []Result {
		var all []Result
		for _, b := range batches(tuples, 31) {
			rs, err := s.ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}

	multi, single := mkEngine(4), mkEngine(1)
	run(multi, tuples[:half])
	run(single, tuples[:half])
	multiState, singleState := multi.SnapshotState(), single.SnapshotState()
	if !reflect.DeepEqual(multiState.Edges, singleState.Edges) {
		t.Fatal("folded graph differs between writer counts at the same batch boundary")
	}
	if multiState.Now != singleState.Now || multiState.Seen != singleState.Seen ||
		multiState.Dropped != singleState.Dropped || multiState.Win != singleState.Win {
		t.Fatal("coordinator clocks differ between writer counts at the same batch boundary")
	}
	wantTail := run(single, tuples[half:])
	single.Close()
	multi.Close()

	restored := mkEngine(2)
	if err := restored.RestoreState(multiState); err != nil {
		t.Fatal(err)
	}
	gotTail := run(restored, tuples[half:])
	restored.Close()
	if !reflect.DeepEqual(wantTail, gotTail) {
		t.Fatalf("restored engine's tail diverged (%d vs %d results)", len(gotTail), len(wantTail))
	}
	if len(wantTail) == 0 {
		t.Fatal("no tail results; test is vacuous")
	}
}

// TestWritersOptionValidation covers the WithWriters guard rails and
// the accessor default.
func TestWritersOptionValidation(t *testing.T) {
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(0)); err == nil {
		t.Fatal("zero writer count accepted")
	}
	if _, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(-2)); err == nil {
		t.Fatal("negative writer count accepted")
	}
	s, err := New(window.Spec{Size: 10, Slide: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.NumWriters(); n != 1 {
		t.Fatalf("default writer count = %d, want 1", n)
	}
	s4, err := New(window.Spec{Size: 10, Slide: 1}, WithWriters(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if n := s4.NumWriters(); n != 4 {
		t.Fatalf("NumWriters = %d, want 4", n)
	}
}

// TestMultiWriterExpiryCount: the Removed annotation on the window's
// expiry record is the deterministic plan-order count, independent of
// writer count (it feeds monitoring, so a writers change must not move
// the reported numbers).
func TestMultiWriterExpiryCount(t *testing.T) {
	spec := window.Spec{Size: 12, Slide: 4}
	tuples := randomTuples(rand.New(rand.NewSource(99)), 400, 6, 2, 1, 0.1)
	counts := func(writers int) []int {
		s, err := New(spec, WithWriters(writers))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Add(bind(t, "(a/b)+", "a", "b"), nil); err != nil {
			t.Fatal(err)
		}
		var out []int
		last := window.Expiry{}
		for _, b := range batches(tuples, 17) {
			if _, err := s.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
			if e := s.win.LastExpiry(); e != last {
				out = append(out, e.Removed)
				last = e
			}
		}
		return out
	}
	want := counts(1)
	if len(want) == 0 {
		t.Fatal("stream crossed no slide boundary; test is vacuous")
	}
	for _, writers := range []int{2, 8} {
		if got := counts(writers); !reflect.DeepEqual(want, got) {
			t.Fatalf("writers=%d: expiry Removed counts %v, want %v", writers, got, want)
		}
	}
}
