package streamrpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// churnStream generates a random facade-level stream; delRatio is the
// probability that a tuple re-deletes a previously inserted edge.
func churnStream(seed int64, n int, delRatio float64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b"}
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
			Label: labels[rng.Intn(2)],
		}
		out = append(out, tu)
		inserted = append(inserted, tu)
	}
	return out
}

// shardStream generates a deletion-free random facade-level stream.
func shardStream(seed int64, n int) []Tuple { return churnStream(seed, n, 0) }

func shardQueries() []*Query {
	return []*Query{
		MustCompile("(a/b)+"),
		MustCompile("a/b*"),
		MustCompile("(a|b)+"),
		MustCompile("b/a"),
	}
}

// collectMulti drains a stream through Ingest and returns, per query
// expression, the multiset of matches.
func collectMulti(t *testing.T, m *MultiEvaluator, stream []Tuple) map[string]map[Match]int {
	t.Helper()
	out := map[string]map[Match]int{}
	for _, tu := range stream {
		rs, err := m.Ingest(tu)
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range rs {
			name := qr.Query.String()
			if out[name] == nil {
				out[name] = map[Match]int{}
			}
			for _, match := range qr.Matches {
				out[name][match]++
			}
		}
	}
	return out
}

// facadeEntry is one facade-level result with the stream-global index
// of the tuple that produced it: the form for comparing against an
// oracle that emits in its own order within one (tuple, query) cell.
type facadeEntry struct {
	Tuple int // stream-global index of the triggering tuple
	Query int // query registration index
	Inval bool
	M     Match
}

// lessEntry is the canonical order of facade entries (by vertex name,
// where the engine orders a cell by vertex id).
func lessEntry(a, b *facadeEntry) bool {
	if a.Tuple != b.Tuple {
		return a.Tuple < b.Tuple
	}
	if a.Query != b.Query {
		return a.Query < b.Query
	}
	if a.Inval != b.Inval {
		return !a.Inval
	}
	if a.M.From != b.M.From {
		return a.M.From < b.M.From
	}
	if a.M.To != b.M.To {
		return a.M.To < b.M.To
	}
	return a.M.TS < b.M.TS
}

// rawGroup is one BatchResult with the query pointer replaced by its
// registration index and the tuple index made batch-global, so streams
// from different evaluator instances compare with reflect.DeepEqual.
type rawGroup struct {
	Tuple         int
	Query         int
	Matches       []Match
	Invalidations []Match
}

// collectCanon drives a stream through IngestBatch in fixed chunks and
// returns both the canonicalized (sorted) entry stream and the raw
// ordered result groups.
func collectCanon(t *testing.T, m *MultiEvaluator, qidx map[*Query]int, stream []Tuple, chunk int) ([]facadeEntry, []rawGroup) {
	t.Helper()
	var canon []facadeEntry
	var raw []rawGroup
	for i := 0; i < len(stream); i += chunk {
		rs, err := m.IngestBatch(stream[i:min(i+chunk, len(stream))])
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range rs {
			g := rawGroup{Tuple: i + br.Tuple, Query: qidx[br.Query]}
			g.Matches = append(g.Matches, br.Matches...)
			g.Invalidations = append(g.Invalidations, br.Invalidations...)
			raw = append(raw, g)
			for _, match := range br.Matches {
				canon = append(canon, facadeEntry{Tuple: g.Tuple, Query: g.Query, M: match})
			}
			for _, match := range br.Invalidations {
				canon = append(canon, facadeEntry{Tuple: g.Tuple, Query: g.Query, Inval: true, M: match})
			}
		}
	}
	sort.Slice(canon, func(i, j int) bool { return lessEntry(&canon[i], &canon[j]) })
	return canon, raw
}

// TestMultiEvaluatorShardedAgrees: WithShards must not change the
// result stream of any registered query — on a stream with explicit
// deletions the raw ordered batch results, matches AND invalidations
// with their timestamps and triggering tuples, must be byte-identical to
// the default one-shard evaluator's, for shards 1/2/8.
func TestMultiEvaluatorShardedAgrees(t *testing.T) {
	stream := churnStream(31, 700, 0.15)
	newEval := func() (*MultiEvaluator, map[*Query]int) {
		qs := shardQueries()
		qidx := make(map[*Query]int, len(qs))
		for i, q := range qs {
			qidx[q] = i
		}
		m, err := NewMultiEvaluator(25, 5, qs...)
		if err != nil {
			t.Fatal(err)
		}
		return m, qidx
	}
	seq, seqIdx := newEval()
	want, seqRaw := collectCanon(t, seq, seqIdx, stream, 50)
	if len(want) == 0 {
		t.Fatal("no results; test is vacuous")
	}
	hasInval := false
	for _, e := range want {
		if e.Inval {
			hasInval = true
			break
		}
	}
	if !hasInval {
		t.Fatal("no invalidations; deletion coverage is vacuous")
	}

	for _, shards := range []int{1, 2, 8} {
		m, qidx := newEval()
		if err := m.WithShards(shards); err != nil {
			t.Fatal(err)
		}
		_, raw := collectCanon(t, m, qidx, stream, 50)
		m.Close()
		if !reflect.DeepEqual(seqRaw, raw) {
			t.Fatalf("shards=%d: result stream diverges from the default evaluator (%d vs %d result groups)",
				shards, len(seqRaw), len(raw))
		}
	}
}

// TestMultiEvaluatorIngestBatch: the batch path must produce exactly
// the per-tuple results of the single-tuple path, at one shard and four.
func TestMultiEvaluatorIngestBatch(t *testing.T) {
	stream := shardStream(57, 400)
	for _, shards := range []int{0, 4} { // 0 = the default one-shard evaluator
		ref, err := NewMultiEvaluator(30, 3, shardQueries()...)
		if err != nil {
			t.Fatal(err)
		}
		want := collectMulti(t, ref, stream)

		m, err := NewMultiEvaluator(30, 3, shardQueries()...)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			if err := m.WithShards(shards); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]map[Match]int{}
		lastTuple := -1
		for i := 0; i < len(stream); i += 50 {
			batch := stream[i:min(i+50, len(stream))]
			rs, err := m.IngestBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, br := range rs {
				if br.Tuple < 0 || br.Tuple >= len(batch) {
					t.Fatalf("batch result references tuple %d of %d", br.Tuple, len(batch))
				}
				if br.Tuple < lastTuple && lastTuple < len(batch) {
					// results must be ordered by tuple index within one batch
					t.Fatalf("batch results out of order: tuple %d after %d", br.Tuple, lastTuple)
				}
				name := br.Query.String()
				if got[name] == nil {
					got[name] = map[Match]int{}
				}
				for _, match := range br.Matches {
					got[name][match]++
				}
			}
			lastTuple = -1
		}
		m.Close()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: IngestBatch diverges from Ingest loop", shards)
		}
	}
}

// TestMultiEvaluatorShardedDeterminism: two sharded runs over the same
// stream yield byte-identical ordered batch results.
func TestMultiEvaluatorShardedDeterminism(t *testing.T) {
	stream := shardStream(83, 600)
	run := func() []BatchResult {
		m, err := NewMultiEvaluator(20, 2, shardQueries()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WithShards(4); err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		var all []BatchResult
		for i := 0; i < len(stream); i += 64 {
			rs, err := m.IngestBatch(stream[i:min(i+64, len(stream))])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rs...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no results; test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical sharded runs differ: %d vs %d result groups", len(a), len(b))
	}
}

// TestIngestBatchRejectedAtomically: an out-of-order batch — including
// the very first batch, before any stream clock exists — must be
// rejected before any tuple reaches the engine, at one shard and more.
func TestIngestBatchRejectedAtomically(t *testing.T) {
	for _, shards := range []int{0, 2} {
		m, err := NewMultiEvaluator(10, 1, MustCompile("a"))
		if err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			if err := m.WithShards(shards); err != nil {
				t.Fatal(err)
			}
		}
		bad := []Tuple{
			{TS: 5, Src: "x", Dst: "y", Label: "a"},
			{TS: 3, Src: "y", Dst: "z", Label: "a"},
		}
		if _, err := m.IngestBatch(bad); err == nil {
			t.Fatalf("shards=%d: unordered first batch accepted", shards)
		}
		if st := m.Stats(); st.TuplesSeen != 0 || st.Edges != 0 {
			t.Fatalf("shards=%d: rejected batch left engine state: %+v", shards, st)
		}
		// The stream clock must be untouched: a tuple older than the
		// rejected batch's maximum is still acceptable.
		if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err != nil {
			t.Fatalf("shards=%d: clock advanced by rejected batch: %v", shards, err)
		}
		m.Close()
	}
}

// TestWithShardsGuards: configuration errors must surface cleanly, and
// an evaluator runs one shard until WithShards names more.
func TestWithShardsGuards(t *testing.T) {
	m, err := NewMultiEvaluator(10, 1, MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 1 {
		t.Fatalf("default evaluator runs %d shards, want 1", m.NumShards())
	}
	if err := m.WithShards(0); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.WithShards(2); err == nil {
		t.Fatal("WithShards after first Ingest accepted")
	}
	m.Close()

	s, err := NewMultiEvaluator(10, 1, MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WithShards(2); err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 2 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	s.Ingest(Tuple{TS: 5, Src: "u", Dst: "v", Label: "a"})
	if _, err := s.Ingest(Tuple{TS: 4, Src: "u", Dst: "v", Label: "a"}); err == nil {
		t.Fatal("out-of-order accepted by the two-shard coordinator")
	}
	if st := s.ShardStats(); len(st) != 2 {
		t.Fatalf("ShardStats len = %d", len(st))
	}
	s.Close()
	s.Close() // idempotent
}
