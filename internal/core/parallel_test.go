package core

import (
	"math/rand"
	"slices"
	"testing"

	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// sortedTail returns a (From, To, TS)-sorted copy of log[from:].
func sortedTail(log []Match, from int) []Match {
	out := slices.Clone(log[from:])
	slices.SortFunc(out, compareMatches)
	return out
}

// TestParallelMatchesSequential: the fan-out is pure scheduling over
// the sequential engine's Insert / ExpiryRAPQ, so on a stream with
// deletions it must yield, per tuple, exactly the sequential engine's
// matches and invalidations and leave identical counters and index
// sizes. The periodic CheckInvariants is what exercises the deferred
// inverted-index updates. The collectors are unlocked on purpose: the
// sink must only ever run on the driving goroutine (-race checks it).
func TestParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, q := range []struct {
			expr   string
			labels []string
		}{
			{"(a/b)+", []string{"a", "b", "c"}},
			{"a*", []string{"a", "b", "c"}},
			{"a/b*/c", []string{"a", "b", "c"}},
		} {
			rng := rand.New(rand.NewSource(404))
			a := bind(t, q.expr, q.labels...)
			spec := window.Spec{Size: 30, Slide: 3}

			seq, par := NewCollector(), NewCollector()
			se := NewRAPQ(a, spec, WithSink(seq))
			pe := NewParallelRAPQ(a, spec, workers, WithSink(par))

			for i, tu := range randomTuples(rng, 800, 12, 3, 2, 0.1) {
				m, r := len(seq.Matched), len(seq.Retract)
				if m != len(par.Matched) || r != len(par.Retract) {
					t.Fatalf("workers=%d %q tuple %d: logs out of step", workers, q.expr, i)
				}
				se.Process(tu)
				pe.Process(tu)
				if want, got := sortedTail(seq.Matched, m), sortedTail(par.Matched, m); !slices.Equal(want, got) {
					t.Fatalf("workers=%d %q tuple %d: matches\nsequential %v\nparallel   %v", workers, q.expr, i, want, got)
				}
				if want, got := sortedTail(seq.Retract, r), sortedTail(par.Retract, r); !slices.Equal(want, got) {
					t.Fatalf("workers=%d %q tuple %d: invalidations\nsequential %v\nparallel   %v", workers, q.expr, i, want, got)
				}
				ss, ps := se.Stats(), pe.Stats()
				if ss.Results != ps.Results || ss.Invalidations != ps.Invalidations || ss.InsertCalls != ps.InsertCalls ||
					ss.Trees != ps.Trees || ss.Nodes != ps.Nodes {
					t.Fatalf("workers=%d %q tuple %d: stats diverge\nsequential %+v\nparallel   %+v", workers, q.expr, i, ss, ps)
				}
				if (i+1)%50 == 0 {
					if err := pe.inner.CheckInvariants(); err != nil {
						t.Fatalf("workers=%d %q tuple %d: %v", workers, q.expr, i, err)
					}
				}
			}
			if len(seq.Matched) == 0 || len(seq.Retract) == 0 {
				t.Fatalf("workers=%d %q: %d matches, %d invalidations; test is vacuous", workers, q.expr, len(seq.Matched), len(seq.Retract))
			}
		}
	}
}

// TestParallelOracle validates the parallel engine against the batch
// oracle directly (soundness + completeness of the cumulative stream).
func TestParallelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	a := bind(t, "(a/b)+", "a", "b")
	spec := window.Spec{Size: 20, Slide: 1}
	sink := NewCollector()
	pe := NewParallelRAPQ(a, spec, 4, WithSink(sink))

	oracle := graph.New()
	want := map[Pair]struct{}{}
	tuples := randomTuples(rng, 300, 8, 2, 2, 0)
	for i, tu := range tuples {
		pe.Process(tu)
		oracle.Insert(tu.Src, tu.Dst, tu.Label, tu.TS)
		oracle.Expire(tu.TS-spec.Size, nil)
		snap := BatchArbitrary(oracle, a, tu.TS-spec.Size)
		for p := range snap {
			want[p] = struct{}{}
		}
		got := sink.Pairs()
		for p := range snap {
			if _, ok := got[p]; !ok {
				t.Fatalf("tuple %d: oracle pair %v missing", i, p)
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("tuple %d: spurious pair %v", i, p)
			}
		}
	}
}

func TestParallelWorkerDefault(t *testing.T) {
	a := bind(t, "a", "a")
	pe := NewParallelRAPQ(a, window.Spec{Size: 10, Slide: 1}, 0)
	if len(pe.pool) == 0 {
		t.Fatalf("workers = %d", len(pe.pool))
	}
	pe.Process(stream.Tuple{TS: 1, Src: 1, Dst: 2, Label: 0})
	if pe.Stats().Results != 1 {
		t.Fatalf("Results = %d", pe.Stats().Results)
	}
}
