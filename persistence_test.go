package streamrpq

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/pattern"
	"streamrpq/internal/persist"
	"streamrpq/internal/stream"
)

// persistTestQueries is the shared multi-query workload of the
// durability tests. The last pattern is language-equivalent to the
// first, so the two subscribe to one shared Δ-index group — checkpoints
// of every configuration below therefore carry a shared-group layout
// (snapshot format v5).
func persistTestQueries(t testing.TB) []*Query {
	t.Helper()
	var qs []*Query
	for _, expr := range []string{"a/b*", "(a|b)+", "b/a", "a|(a/b*)"} {
		q, err := Compile(expr)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

// persistChurnStream generates a random stream over string vertices,
// pre-split into batches; delRatio is the probability that a tuple
// re-deletes a previously inserted edge.
func persistChurnStream(seed int64, n, batch int, delRatio float64) [][]Tuple {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "noise"}
	var ts int64
	var batches [][]Tuple
	var inserted []Tuple
	for i := 0; i < n; i += batch {
		var cur []Tuple
		for j := 0; j < batch && i+j < n; j++ {
			ts += rng.Int63n(3)
			if len(inserted) > 0 && rng.Float64() < delRatio {
				old := inserted[rng.Intn(len(inserted))]
				cur = append(cur, Tuple{TS: ts, Src: old.Src, Dst: old.Dst, Label: old.Label, Delete: true})
				continue
			}
			tu := Tuple{
				TS:    ts,
				Src:   fmt.Sprintf("v%d", rng.Intn(9)),
				Dst:   fmt.Sprintf("v%d", rng.Intn(9)),
				Label: labels[rng.Intn(len(labels))],
			}
			cur = append(cur, tu)
			inserted = append(inserted, tu)
		}
		batches = append(batches, cur)
	}
	return batches
}

// persistTestStream generates an append-only random stream over string
// vertices, pre-split into batches.
func persistTestStream(seed int64, n, batch int) [][]Tuple {
	return persistChurnStream(seed, n, batch, 0)
}

// flatResult is one result in the flattened, comparable form of a
// result stream: everything that identifies it, timestamps and
// invalidations included.
type flatResult struct {
	Batch int
	Tuple int
	Query string
	Inval bool
	From  string
	To    string
	TS    int64
}

// flatten appends the results of one ingested batch, in the order the
// evaluator returned them (canonical in every configuration).
func flatten(dst []flatResult, batchIdx int, brs []BatchResult) []flatResult {
	for _, br := range brs {
		for _, m := range br.Matches {
			dst = append(dst, flatResult{
				Batch: batchIdx, Tuple: br.Tuple, Query: br.Query.String(),
				From: m.From, To: m.To, TS: m.TS,
			})
		}
		for _, m := range br.Invalidations {
			dst = append(dst, flatResult{
				Batch: batchIdx, Tuple: br.Tuple, Query: br.Query.String(),
				Inval: true, From: m.From, To: m.To, TS: m.TS,
			})
		}
	}
	return dst
}

// TestKillRecoverDifferential is the acceptance test of the durability
// subsystem: ingest a prefix, Checkpoint, ingest more, hard-drop the
// evaluator without Close (the in-process kill -9), Recover, ingest the
// rest — the concatenated result stream must be identical (order and
// timestamps included) to an uninterrupted run, for shard counts 1 and
// 4 and for the default evaluator.
func TestKillRecoverDifferential(t *testing.T) {
	// shards 0 = the default one-shard evaluator. split = the checkpoint
	// is rewritten on disk before Recover into the layout written with
	// sharing switched off (see splitSharedPair): the workload's
	// equivalent pair holds two copies of its state, and Recover must
	// restore it collapsed into the pair's one group.
	// The names keep their depth=, writers=0 and private=false segments,
	// retired axes, so rows stay comparable with earlier runs of this
	// test: the depth=1 and depth=4 rows run the configuration of the
	// depth=0 one.
	for _, cfg := range []struct {
		shards, depth int
		split         bool
	}{
		{0, 0, false}, {1, 0, false}, {4, 0, false}, {4, 1, false},
		{4, 4, false}, {0, 0, true}, {4, 0, true},
	} {
		shards, split := cfg.shards, cfg.split
		name := fmt.Sprintf("shards=%d/depth=%d/writers=0/private=false", shards, cfg.depth)
		if split {
			name = fmt.Sprintf("shards=%d/depth=%d/writers=0/split=true", shards, cfg.depth)
		}
		t.Run(name, func(t *testing.T) {
			// Delete/re-insert churn puts the crash point mid-churn: the
			// recovered engines' support counts (snapshot format v2) must
			// reproduce the invalidation stream exactly.
			batches := persistChurnStream(2026, 360, 16, 0.15)
			build := func() *MultiEvaluator {
				m, err := NewMultiEvaluator(20, 2, persistTestQueries(t)...)
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

			// Uninterrupted reference run.
			ref := build()
			defer ref.Close()
			var want []flatResult
			for i, b := range batches {
				brs, err := ref.IngestBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				want = flatten(want, i, brs)
			}
			hasInval := false
			for _, r := range want {
				if r.Inval {
					hasInval = true
					break
				}
			}
			if !hasInval {
				t.Fatal("churn stream produced no invalidations; deletion coverage is vacuous")
			}

			// Persisted run with a mid-stream kill.
			ckptAt, killAt := len(batches)/3, 2*len(batches)/3
			dir := t.TempDir()
			m := build()
			if err := m.WithPersistence(dir); err != nil {
				t.Fatal(err)
			}
			var got []flatResult
			for i, b := range batches[:killAt] {
				brs, err := m.IngestBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got = flatten(got, i, brs)
				if i == ckptAt {
					if err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			applied := m.AppliedTuples()
			groups := m.Stats().Groups
			// Crash point. Close here is the in-process stand-in for
			// kill -9: it only releases file descriptors and the
			// directory flock — no commit, no checkpoint, no truncation
			// — leaving the on-disk state exactly as process death
			// would. (A literal `m = nil` would leak the flock inside
			// this test process and block Recover.)
			m.Close()
			if split {
				splitSharedPair(t, dir, 1) // the checkpoint taken at ckptAt
			}

			m2, redelivered, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if len(redelivered) != 0 {
				t.Fatalf("all batches were committed, yet %d results redelivered", len(redelivered))
			}
			if m2.AppliedTuples() != applied {
				t.Fatalf("recovered AppliedTuples = %d, want %d", m2.AppliedTuples(), applied)
			}
			if m2.NumShards() != max(shards, 1) || m2.NumQueries() != 4 {
				t.Fatalf("recovered topology: %d shards, %d queries", m2.NumShards(), m2.NumQueries())
			}
			if got := m2.Stats().Groups; got != groups {
				t.Fatalf("recovered layout has %d groups, the killed evaluator %d", got, groups)
			}
			for i, b := range batches[killAt:] {
				brs, err := m2.IngestBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got = flatten(got, killAt+i, brs)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("post-recovery stream diverged from uninterrupted run:\nwant %d results\ngot  %d results\nfirst divergence: %v",
					len(want), len(got), firstDiff(want, got))
			}

			// Second-generation recovery: checkpoint, kill, recover again.
			if err := m2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			m2.Close() // release the flock so the next Recover can take it
			m3, redelivered, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer m3.Close()
			if len(redelivered) != 0 {
				t.Fatalf("clean checkpoint, yet %d results redelivered", len(redelivered))
			}
		})
	}
}

// splitSharedPair rewrites the checkpoint of generation gen in dir into
// the layout a coordinator with sharing switched off wrote: the
// workload's equivalent pair (queries 0 and 3) gets two copies of its
// shared state, one per query.
func splitSharedPair(t *testing.T, dir string, gen uint64) {
	t.Helper()
	path := persist.SnapshotPath(dir, gen)
	snap, err := persist.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.State
	if !reflect.DeepEqual(st.MemberGroup, []int{0, 1, 2, 0}) {
		t.Fatalf("checkpoint mapping %v, want the pair shared", st.MemberGroup)
	}
	dup := *st.Members[0]
	st.Members = append(st.Members, &dup)
	st.MemberGroup = []int{0, 1, 2, 3}
	if err := os.WriteFile(path, persist.EncodeSnapshot(snap), 0o644); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(want, got []flatResult) string {
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("index %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	return fmt.Sprintf("lengths differ at %d", n)
}

// TestRecoverRedeliversUncommittedBatch: a batch whose WAL record made
// it to disk but whose commit did not (the crash landed between
// write-ahead and delivery) is replayed on recovery and its results
// returned as redelivered, exactly once.
func TestRecoverRedeliversUncommittedBatch(t *testing.T) {
	batches := persistTestStream(7, 200, 16)
	qs := persistTestQueries(t)

	ref, err := NewMultiEvaluator(20, 2, qs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.WithShards(2); err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []flatResult
	for i, b := range batches {
		brs, err := ref.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		want = flatten(want, i, brs)
	}

	dir := t.TempDir()
	m, err := NewMultiEvaluator(20, 2, persistTestQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithShards(2); err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	crashAt := len(batches) / 2
	var got []flatResult
	for i, b := range batches[:crashAt] {
		brs, err := m.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got = flatten(got, i, brs)
	}
	// Simulate the torn moment: the batch reaches the WAL but the
	// process dies before processing it and committing. The write-ahead
	// happens first in IngestBatch, so this is the real crash window.
	crashBatch := batches[crashAt]
	encoded := make([]stream.Tuple, len(crashBatch))
	for i, tu := range crashBatch {
		encoded[i] = m.fe.encode(tu)
	}
	if err := m.persist.appendBatch(m, encoded); err != nil {
		t.Fatal(err)
	}
	m.Close() // kill -9 stand-in: fd/lock release only, state untouched

	m2, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got = flatten(got, crashAt, redelivered)
	for i, b := range batches[crashAt+1:] {
		brs, err := m2.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got = flatten(got, crashAt+1+i, brs)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("redelivery stream diverged: %s", firstDiff(want, got))
	}
}

// TestRecoverRedeliversExactlyOnce: the redelivered batch is
// acknowledged by Recover itself, so a second crash-and-recover (with
// no further ingestion in between) must not redeliver it again.
func TestRecoverRedeliversExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(20, 2, persistTestQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithShards(2); err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	batches := persistTestStream(11, 120, 12)
	for _, b := range batches[:5] {
		if _, err := m.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash window: batch in the WAL, no commit, results never returned.
	encoded := make([]stream.Tuple, len(batches[5]))
	for i, tu := range batches[5] {
		encoded[i] = m.fe.encode(tu)
	}
	if err := m.persist.appendBatch(m, encoded); err != nil {
		t.Fatal(err)
	}
	m.Close() // kill #1 stand-in: fd/lock release only, state untouched

	m2, redelivered1, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(redelivered1) == 0 {
		t.Fatal("uncommitted batch produced no redelivery (want some results)")
	}
	m2.Close() // kill #2 stand-in, immediately after recovery: no ingestion

	m3, redelivered2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if len(redelivered2) != 0 {
		t.Fatalf("second recovery redelivered %d result groups again (want 0: duplicates)", len(redelivered2))
	}
	// The engine state still contains the batch: ingestion continues
	// from after it.
	if m3.AppliedTuples() != int64(6*12) {
		t.Fatalf("AppliedTuples = %d, want %d", m3.AppliedTuples(), 6*12)
	}
}

// TestRecoverFallsBackPastCorruptSnapshot: corrupting the newest
// snapshot file must not lose data — recovery falls back to the
// previous generation and replays the longer WAL suffix, producing the
// same state.
func TestRecoverFallsBackPastCorruptSnapshot(t *testing.T) {
	batches := persistTestStream(99, 240, 12)
	qs := persistTestQueries(t)

	ref, err := NewMultiEvaluator(20, 2, qs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.WithShards(2); err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []flatResult
	for i, b := range batches {
		brs, err := ref.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		want = flatten(want, i, brs)
	}

	dir := t.TempDir()
	m, err := NewMultiEvaluator(20, 2, persistTestQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithShards(2); err != nil {
		t.Fatal(err)
	}
	// Automatic checkpoints every 5 batches produce several generations.
	if err := m.WithPersistence(dir, CheckpointEvery(5)); err != nil {
		t.Fatal(err)
	}
	killAt := 3 * len(batches) / 4
	var got []flatResult
	for i, b := range batches[:killAt] {
		brs, err := m.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got = flatten(got, i, brs)
	}
	m.Close() // kill -9 stand-in: fd/lock release only, state untouched

	// Corrupt the newest snapshot file.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want ≥2 snapshot generations, got %v (err %v)", snaps, err)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(redelivered) != 0 {
		t.Fatalf("%d results redelivered after clean commits", len(redelivered))
	}
	for i, b := range batches[killAt:] {
		brs, err := m2.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got = flatten(got, killAt+i, brs)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("fallback recovery diverged: %s", firstDiff(want, got))
	}
}

// TestPersistenceGuards: API misuse is rejected early.
func TestPersistenceGuards(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(10, 1, persistTestQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Checkpoint(); err == nil {
		t.Error("Checkpoint without WithPersistence accepted")
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err == nil {
		t.Error("double WithPersistence accepted")
	}
	if err := m.WithShards(2); err == nil {
		t.Error("WithShards after WithPersistence accepted")
	}

	m2, err := NewMultiEvaluator(10, 1, persistTestQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := m2.WithPersistence(dir); err == nil {
		t.Error("WithPersistence over an existing persistence directory accepted")
	}
	if _, _, err := Recover(t.TempDir()); err == nil {
		t.Error("Recover of an empty directory accepted")
	}
}

// TestDeferredCheckpointError: an automatic-checkpoint failure after a
// batch's results were committed must not swallow those results — the
// batch call succeeds, the error surfaces on the next call (before any
// state is touched, so that batch can simply be retried).
func TestDeferredCheckpointError(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(10, 1, MustCompile("a+"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	mk := func(ts int64) []Tuple {
		return []Tuple{{TS: ts, Src: fmt.Sprintf("n%d", ts), Dst: fmt.Sprintf("n%d", ts+1), Label: "a"}}
	}
	if _, err := m.IngestBatch(mk(1)); err != nil {
		t.Fatal(err)
	}
	// Inject a deferred failure as commitBatch would after a failed
	// auto-checkpoint.
	injected := fmt.Errorf("injected checkpoint failure")
	m.persist.deferred = injected

	if _, err := m.IngestBatch(mk(2)); err == nil {
		t.Fatal("deferred checkpoint error was not surfaced")
	}
	// The rejected batch touched nothing: the retry succeeds and the
	// stream continues.
	brs, err := m.IngestBatch(mk(2))
	if err != nil {
		t.Fatalf("retry after deferred error: %v", err)
	}
	found := false
	for _, br := range brs {
		for _, mt := range br.Matches {
			if mt.From == "n1" && mt.To == "n3" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("retry lost results: %+v", brs)
	}
	if m.AppliedTuples() != 2 {
		t.Fatalf("AppliedTuples = %d, want 2 (rejected batch must not count)", m.AppliedTuples())
	}
}

// TestCommitFailureDefersWithoutLosingResults: a failed commit append
// must not surface as an IngestBatch error (the batch is applied; an
// error would invite a double-applying retry, and continuing would ack
// it at the next commit, losing its results). Instead the commit is
// remembered and retried before the next append, and the failure is
// reported on the next call.
func TestCommitFailureDefersWithoutLosingResults(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(10, 1, MustCompile("a+"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestBatch([]Tuple{{TS: 1, Src: "a", Dst: "b", Label: "a"}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a transient append failure: close the WAL out from under
	// the commit path.
	p := m.persist
	p.mgr.Close()
	if err := p.commitBatch(m, 2, nil); err != nil {
		t.Fatalf("commitBatch surfaced an error directly (invites double-apply): %v", err)
	}
	if p.pendingCommit == nil {
		t.Fatal("failed commit not remembered for retry")
	}
	if p.deferred == nil {
		t.Fatal("failed commit not reported via deferred error")
	}
	// The next batch surfaces the deferred error without touching state.
	if _, err := m.IngestBatch([]Tuple{{TS: 3, Src: "b", Dst: "c", Label: "a"}}); err == nil {
		t.Fatal("deferred commit failure not surfaced")
	}
	// The retry self-heals: appendBatch's checkpoint repair reopens the
	// WAL (new generation) and supersedes the pending commit, so
	// ingestion continues and the stream stays intact.
	brs, err := m.IngestBatch([]Tuple{{TS: 3, Src: "b", Dst: "c", Label: "a"}})
	if err != nil {
		t.Fatalf("self-heal after failed flush: %v", err)
	}
	if p.pendingCommit != nil {
		t.Fatal("pending commit not superseded by the repair checkpoint")
	}
	found := false
	for _, br := range brs {
		for _, mt := range br.Matches {
			if mt.From == "a" && mt.To == "c" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("results lost across the repair: %+v", brs)
	}
}

// TestPersistedSingleTupleIngest: the single-tuple Ingest path logs and
// commits through the same WAL machinery.
func TestPersistedSingleTupleIngest(t *testing.T) {
	dir := t.TempDir()
	q := MustCompile("a+")
	m, err := NewMultiEvaluator(10, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Ingest(Tuple{TS: int64(i), Src: fmt.Sprintf("n%d", i), Dst: fmt.Sprintf("n%d", i+1), Label: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close() // kill -9 stand-in: fd/lock release only, state untouched

	m2, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(redelivered) != 0 {
		t.Fatalf("redelivered %d", len(redelivered))
	}
	if m2.AppliedTuples() != 5 {
		t.Fatalf("AppliedTuples = %d, want 5", m2.AppliedTuples())
	}
	// The chain n0→…→n5 is live; a new edge extends it.
	rs, err := m2.Ingest(Tuple{TS: 5, Src: "n5", Dst: "n6", Label: "a"})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, qr := range rs {
		for _, mt := range qr.Matches {
			pairs = append(pairs, qr.Query.String()+":"+mt.From+"->"+mt.To)
		}
	}
	sort.Strings(pairs)
	want := []string{"a+:n0->n6", "a+:n1->n6", "a+:n2->n6", "a+:n3->n6", "a+:n4->n6", "a+:n5->n6"}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("post-recovery matches %v, want %v", pairs, want)
	}
}

// TestRecoverKeepsRegistrationIDs: a removed query's slot survives a
// checkpoint and recovery as an empty slot, so every registration index
// names the same query before and after: in QueryByIndex, in
// RegisteredQueries and in the next batch's BatchResult.QueryIndex.
func TestRecoverKeepsRegistrationIDs(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMultiEvaluator(10, 1, MustCompile("a"), MustCompile("b"), MustCompile("c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestBatch([]Tuple{
		{TS: 1, Src: "x", Dst: "y", Label: "a"},
		{TS: 1, Src: "x", Dst: "y", Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := m.RegisteredQueries()
	m.Close()

	m2, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(redelivered) != 0 {
		t.Fatalf("redelivered %d results, want 0", len(redelivered))
	}
	if q := m2.QueryByIndex(0); q != nil {
		t.Fatalf("QueryByIndex(0) = %q, want the removed slot (nil)", q)
	}
	if q := m2.QueryByIndex(2); q == nil || q.String() != "c" {
		t.Fatalf("QueryByIndex(2) = %v, want c", q)
	}
	if got := m2.RegisteredQueries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RegisteredQueries after recovery = %v, want %v", got, want)
	}
	if n := m2.NumQueries(); n != 2 {
		t.Fatalf("NumQueries = %d, want 2", n)
	}
	brs, err := m2.IngestBatch([]Tuple{{TS: 2, Src: "y", Dst: "z", Label: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 1 || brs[0].QueryIndex != 2 || brs[0].Query.String() != "c" {
		t.Fatalf("batch after recovery = %+v, want one result of query c at index 2", brs)
	}
}

// TestPoisonedEvaluatorWritesNothingDurable: once a member fault has
// poisoned the coordinator, its state may hold a half-applied batch.
// Neither a further IngestBatch (through the WAL) nor Checkpoint may
// write a byte of it to the persistence directory; both return the
// fault.
func TestPoisonedEvaluatorWritesNothingDurable(t *testing.T) {
	// A final-state vector shorter than the state count: the engine
	// panics when the first a-edge reaches state 1.
	e, err := pattern.Parse("a")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := newQuery("a", e, &automaton.DFA{
		Alphabet: []string{"a"},
		Final:    []bool{false},
		Trans:    []map[string]int{{"a": 1}, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := NewMultiEvaluator(10, 1, bad)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WithPersistence(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(Tuple{TS: 1, Src: "x", Dst: "y", Label: "a"}); err == nil {
		t.Fatal("the faulty query did not poison the evaluator")
	}
	if m.Err() == nil {
		t.Fatal("Err() = nil after a member fault")
	}
	files := func() map[string]int64 {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, de := range entries {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[de.Name()] = info.Size()
		}
		return out
	}
	before := files()
	if _, err := m.Ingest(Tuple{TS: 2, Src: "y", Dst: "z", Label: "a"}); err == nil {
		t.Fatal("a poisoned evaluator accepted another batch")
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint of a poisoned evaluator returned nil")
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatalf("persistence directory changed after the fault:\nbefore %v\nafter  %v", before, after)
	}
}
