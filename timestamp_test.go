package streamrpq

import (
	"math"
	"reflect"
	"testing"
)

// TestTimestampShiftInvariance: every stream clock starts unset, not at
// 0, and the window bounds saturate instead of wrapping, so shifting a
// churn stream's timestamps by a multiple K of the slide shifts every
// result's TS by K and changes nothing else — for the Evaluator under
// both semantics and behind a WithSlack reorder buffer, the one-shard
// MultiEvaluator and the sharded one — down to K = math.MinInt64/2 − 1000
// and up to the K that ends the stream within a slide of math.MaxInt64.
func TestTimestampShiftInvariance(t *testing.T) {
	const size, slide = 20, 4
	stream := churnStream(17, 400, 0.1)
	lastTS := stream[len(stream)-1].TS
	shifted := func(k int64) []Tuple {
		out := append([]Tuple(nil), stream...)
		for i := range out {
			out[i].TS += k
		}
		return out
	}
	evaluator := func(opts ...Option) func(k int64) []facadeEntry {
		return func(k int64) []facadeEntry {
			var got []facadeEntry
			i := 0
			ev, err := NewEvaluator(MustCompile("(a/b)+"), append(opts, WithWindow(size, slide),
				WithOnInvalidate(func(m Match) { got = append(got, facadeEntry{Tuple: i, Inval: true, M: m}) }))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range shifted(k) {
				ms, err := ev.Ingest(tu)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					got = append(got, facadeEntry{Tuple: i, M: m})
				}
				i++
			}
			for _, m := range ev.Flush() {
				got = append(got, facadeEntry{Tuple: i, M: m})
			}
			return got
		}
	}
	multi := func(shards int) func(k int64) []facadeEntry {
		return func(k int64) []facadeEntry {
			qs := shardQueries()
			qidx := make(map[*Query]int, len(qs))
			for i, q := range qs {
				qidx[q] = i
			}
			m, err := NewMultiEvaluator(size, slide, qs...)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if shards > 1 {
				if err := m.WithShards(shards); err != nil {
					t.Fatal(err)
				}
			}
			got, _ := collectCanon(t, m, qidx, shifted(k), 16)
			return got
		}
	}
	runs := []struct {
		name string
		run  func(k int64) []facadeEntry
	}{
		{"Evaluator/arbitrary", evaluator(WithSemantics(Arbitrary))},
		{"Evaluator/simple", evaluator(WithSemantics(Simple))},
		{"Evaluator/slack", evaluator(WithSlack(5))},
		{"MultiEvaluator/inline", multi(1)},
		{"MultiEvaluator/shards=2", multi(2)},
	}
	for _, r := range runs {
		want := r.run(0)
		inval := 0
		for _, e := range want {
			if e.Inval {
				inval++
			}
		}
		if len(want) == 0 || inval == 0 {
			t.Fatalf("%s: %d results, %d invalidations; the test is vacuous", r.name, len(want), inval)
		}
		// The third shift starts the stream below -2^62, where a watermark
		// that started at -2^62 instead of unset would reject it as late.
		// The last two put it near math.MaxInt64, the timestamp of every
		// tree root, against which each offer takes its minimum: the
		// last ends the stream at most one slide below it.
		for _, k := range []int64{-1_000_000, math.MinInt64 / 2, math.MinInt64/2 - 1000,
			math.MaxInt64 / 2 / slide * slide, (math.MaxInt64 - lastTS) / slide * slide} {
			got := r.run(k)
			for i := range got {
				got[i].M.TS -= k
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shifting the stream by %d changed the results (%d vs %d)", r.name, k, len(got), len(want))
			}
		}
	}

	ev, err := NewEvaluator(MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Ingest(Tuple{TS: math.MinInt64, Src: "x", Dst: "y", Label: "a"}); err == nil {
		t.Fatal("the reserved timestamp math.MinInt64 was admitted")
	}
}
