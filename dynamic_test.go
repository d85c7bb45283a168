package streamrpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamrpq/internal/persist"
)

// dynStream generates a random stream over three labels (so a query
// registered mid-stream can carry a label the static set never bound);
// delRatio is the probability a tuple re-deletes a live edge.
func dynStream(seed int64, n int, delRatio float64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c"}
	var out, inserted []Tuple
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += rng.Int63n(3)
		if len(inserted) > 0 && rng.Float64() < delRatio {
			old := inserted[rng.Intn(len(inserted))]
			out = append(out, Tuple{TS: ts, Src: old.Src, Dst: old.Dst, Label: old.Label, Delete: true})
			continue
		}
		tu := Tuple{
			TS:    ts,
			Src:   fmt.Sprintf("v%d", rng.Intn(9)),
			Dst:   fmt.Sprintf("v%d", rng.Intn(9)),
			Label: labels[rng.Intn(len(labels))],
		}
		out = append(out, tu)
		inserted = append(inserted, tu)
	}
	return out
}

func dynBatches(stream []Tuple, size int) [][]Tuple {
	var out [][]Tuple
	for i := 0; i < len(stream); i += size {
		out = append(out, stream[i:min(i+size, len(stream))])
	}
	return out
}

// dynGroup is one BatchResult with the query pointer replaced by its
// registration index, comparable across evaluator instances.
type dynGroup struct {
	Tuple         int
	Query         int
	Matches       []Match
	Invalidations []Match
}

// dynGroups maps the query pointers of a reply to registration indices;
// order within a group is canonical in every configuration and is
// compared as is.
func dynGroups(brs []BatchResult, qidx map[*Query]int) []dynGroup {
	out := []dynGroup{}
	for _, br := range brs {
		out = append(out, dynGroup{
			Tuple:         br.Tuple,
			Query:         qidx[br.Query],
			Matches:       append([]Match{}, br.Matches...),
			Invalidations: append([]Match{}, br.Invalidations...),
		})
	}
	return out
}

func dynFilter(groups []dynGroup, drop int) []dynGroup {
	out := []dynGroup{}
	for _, g := range groups {
		if g.Query != drop {
			out = append(out, g)
		}
	}
	return out
}

// dynEval builds a default evaluator for the given configuration; no
// opt-in precedes online registration. shards == 0 leaves the default
// one-shard evaluator.
func dynEval(t *testing.T, queries []*Query, shards int) *MultiEvaluator {
	t.Helper()
	m, err := NewMultiEvaluator(40, 10, queries...)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		if err := m.WithShards(shards); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestAddQueryMatchesFromStartOracle is the window-bootstrap
// differential of online registration: an evaluator that registers a
// query mid-stream must emit, from the registration batch on, exactly
// the result stream (matches AND invalidations, in the same order) of
// an oracle that ran the query from stream start — and nothing before
// it. Then RemoveQuery must truncate the query's stream at the next
// batch boundary without disturbing the other queries. The bootstrap
// runs in place at the batch boundary; covered at shards 1/2/8 on
// append-only and 15%-churn streams. The depth= segments name a retired
// pipeline-depth axis, kept so the subtest names stay stable: rows that
// differ only in it run the same configuration.
func TestAddQueryMatchesFromStartOracle(t *testing.T) {
	static := func() []*Query {
		return []*Query{MustCompile("(a/b)+"), MustCompile("a/b*")}
	}
	const dynSrc = "c/(a|b)*"
	configs := []struct {
		name   string
		shards int
	}{
		{"inline", 0},
		{"shards=2", 2},
		{"shards=1/depth=1", 1},
		{"shards=1/depth=2", 1},
		{"shards=8/depth=1", 8},
		{"shards=8/depth=2", 8},
	}
	for _, churn := range []float64{0, 0.15} {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("churn=%.0f%%/%s", churn*100, cfg.name), func(t *testing.T) {
				batches := dynBatches(dynStream(11, 600, churn), 40)
				regAt := len(batches) / 3
				rmAt := 2 * len(batches) / 3

				oq := append(static(), MustCompile(dynSrc))
				oracle := dynEval(t, oq, cfg.shards)
				defer oracle.Close()
				oidx := map[*Query]int{}
				for i, q := range oq {
					oidx[q] = i
				}

				tq := static()
				test := dynEval(t, tq, cfg.shards)
				defer test.Close()
				tidx := map[*Query]int{}
				for i, q := range tq {
					tidx[q] = i
				}
				dynIdx := len(tq)

				for i, b := range batches {
					if i == regAt {
						q := MustCompile(dynSrc)
						id, err := test.AddQuery(q)
						if err != nil {
							t.Fatal(err)
						}
						if id != dynIdx {
							t.Fatalf("AddQuery index = %d, want %d", id, dynIdx)
						}
						tidx[q] = id
					}
					if i == rmAt {
						if err := test.RemoveQuery(dynIdx); err != nil {
							t.Fatal(err)
						}
						if got := test.NumQueries(); got != len(tq) {
							t.Fatalf("NumQueries after remove = %d, want %d", got, len(tq))
						}
					}
					obrs, err := oracle.IngestBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					tbrs, err := test.IngestBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					want := dynGroups(obrs, oidx)
					if i < regAt || i >= rmAt {
						// Outside the registration interval the only
						// difference from the oracle is the absence of the
						// dynamic query's groups.
						want = dynFilter(want, dynIdx)
					}
					got := dynGroups(tbrs, tidx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d (reg@%d rm@%d): results diverge\n got: %v\nwant: %v",
							i, regAt, rmAt, got, want)
					}
				}
			})
		}
	}
}

// TestAddQueryGuards: a default evaluator registers and removes
// queries mid-stream with no opt-in; the deprecated EnableDynamicQueries
// is a no-op before and after the first tuple; a removed index stays
// retired.
func TestAddQueryGuards(t *testing.T) {
	m, err := NewMultiEvaluator(40, 10, MustCompile("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.EnableDynamicQueries(); err != nil {
		t.Fatalf("EnableDynamicQueries before the first tuple: %v", err)
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableDynamicQueries(); err != nil {
		t.Fatalf("EnableDynamicQueries after the first tuple: %v", err)
	}
	id, err := m.AddQuery(MustCompile("b/a"))
	if err != nil {
		t.Fatal(err)
	}
	if q := m.QueryByIndex(id); q == nil || q.String() != "b/a" {
		t.Fatalf("QueryByIndex(%d) = %v", id, q)
	}
	if err := m.RemoveQuery(id); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveQuery(id); err == nil {
		t.Fatal("double RemoveQuery: want error")
	}
	if q := m.QueryByIndex(id); q != nil {
		t.Fatalf("QueryByIndex after remove = %v, want nil", q)
	}
	// Re-registration gets a fresh index; the old one stays retired.
	id2, err := m.AddQuery(MustCompile("b/a"))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("re-registration reused index %d", id)
	}
	if err := m.RemoveQuery(0); err != nil {
		t.Fatalf("RemoveQuery of a from-start query mid-stream: %v", err)
	}
}

// TestRelevanceCountersAfterRemove: relevance follows the live query
// set at every shard count. A label only a removed query listened to is
// dropped again afterwards, and a registered group is dispatched to
// from the next batch on, so one shard and two report the same
// TuplesDropped, Dispatches and RelevanceSkips.
func TestRelevanceCountersAfterRemove(t *testing.T) {
	run := func(shards int) Stats {
		m := dynEval(t, []*Query{MustCompile("a/b")}, shards)
		defer m.Close()
		id, err := m.AddQuery(MustCompile("c+"))
		if err != nil {
			t.Fatal(err)
		}
		ingest := func(ts int64) {
			if _, err := m.Ingest(Tuple{TS: ts, Src: "x", Dst: fmt.Sprintf("y%d", ts), Label: "c"}); err != nil {
				t.Fatal(err)
			}
		}
		ingest(1)
		if err := m.RemoveQuery(id); err != nil {
			t.Fatal(err)
		}
		for ts := int64(2); ts <= 11; ts++ {
			ingest(ts)
		}
		return m.Stats()
	}
	inline, piped := run(0), run(2)
	if inline.TuplesDropped != 10 || inline.Dispatches != 1 || inline.RelevanceSkips != 1 {
		t.Errorf("one shard: dropped=%d dispatches=%d skips=%d, want 10/1/1",
			inline.TuplesDropped, inline.Dispatches, inline.RelevanceSkips)
	}
	if piped.TuplesDropped != inline.TuplesDropped || piped.Dispatches != inline.Dispatches ||
		piped.RelevanceSkips != inline.RelevanceSkips {
		t.Errorf("WithShards(2): dropped=%d dispatches=%d skips=%d, one shard %d/%d/%d",
			piped.TuplesDropped, piped.Dispatches, piped.RelevanceSkips,
			inline.TuplesDropped, inline.Dispatches, inline.RelevanceSkips)
	}
}

// TestDynamicPersistRecover: online registration composes with
// durability — AddQuery checkpoints synchronously, so a kill -9 after
// any completed call recovers the full query set, the retained graph
// and the per-label clocks, and the resumed run continues exactly like
// an uninterrupted one — at one shard and at four. (The second
// subtest's depth=2 segment names a retired axis, kept so its name stays
// stable.)
func TestDynamicPersistRecover(t *testing.T) {
	t.Run("inline", func(t *testing.T) { dynamicPersistRecover(t, 0) })
	t.Run("shards=4/depth=2", func(t *testing.T) { dynamicPersistRecover(t, 4) })
}

func dynamicPersistRecover(t *testing.T, shards int) {
	batches := dynBatches(dynStream(23, 480, 0.15), 40)
	regAt, killAt := len(batches)/4, len(batches)/2
	const dynSrc = "c/(a|b)*"

	build := func(dir string) *MultiEvaluator {
		m := dynEval(t, []*Query{MustCompile("(a/b)+"), MustCompile("a/b*")}, shards)
		if dir != "" {
			if err := m.WithPersistence(dir); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	run := func(m *MultiEvaluator, bs [][]Tuple, base, reg int, qidx map[*Query]int) []dynGroup {
		t.Helper()
		var out []dynGroup
		for i, b := range bs {
			if base+i == reg {
				q := MustCompile(dynSrc)
				id, err := m.AddQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				qidx[q] = id
			}
			brs, err := m.IngestBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range dynGroups(brs, qidx) {
				g.Tuple += (base + i) * 40
				out = append(out, g)
			}
		}
		return out
	}

	// Uninterrupted reference run (no persistence, same registration).
	refIdx := map[*Query]int{}
	ref := build("")
	for i, q := range ref.RegisteredQueries() {
		refIdx[q] = i
	}
	want := run(ref, batches, 0, regAt, refIdx)
	ref.Close()

	// Persisted run with a kill between batches.
	dir := t.TempDir()
	m := build(dir)
	gotIdx := map[*Query]int{}
	for i, q := range m.RegisteredQueries() {
		gotIdx[q] = i
	}
	got := run(m, batches[:killAt], 0, regAt, gotIdx)
	m.Close() // kill -9 stand-in: fd/lock release only, state untouched

	m2, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(redelivered) != 0 {
		t.Fatalf("redelivered %d results, want 0 (every batch committed)", len(redelivered))
	}
	if got, want := m2.NumQueries(), 3; got != want {
		t.Fatalf("recovered NumQueries = %d, want %d", got, want)
	}
	got2Idx := map[*Query]int{}
	for i, q := range m2.RegisteredQueries() {
		got2Idx[q] = i
	}
	got = append(got, run(m2, batches[killAt:], killAt, regAt, got2Idx)...)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill/recover run diverges from uninterrupted run (%d vs %d groups)", len(got), len(want))
	}

	// The recovered evaluator accepts further online registrations.
	if _, err := m2.AddQuery(MustCompile("b/c")); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRetainsAll: a fresh evaluator's checkpoint records that
// its graph keeps every label (core.MultiState.Retain), and keeps the
// edge of a label no query reads, so the evaluator recovered from it
// registers queries.
func TestCheckpointRetainsAll(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(40, 10, MustCompile("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	mgr, snap, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := snap.State
	mgr.Close()
	if !st.Retain || len(st.Edges) != 1 {
		t.Fatalf("checkpoint: Retain=%v with %d edges, want true with the c edge", st.Retain, len(st.Edges))
	}
	m2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.AddQuery(MustCompile("c")); err != nil {
		t.Fatalf("AddQuery after recovering a retain-all checkpoint: %v", err)
	}
}
