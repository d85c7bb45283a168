package streamrpq

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/window"
)

// TestInlineMatchesReference: the default evaluator (one shard, on the
// caller's goroutine), the reference coordinator core.Multi fed the same
// encoded tuples, and the WithShards(2) evaluator must produce the same
// result stream, tuple attribution included, on a 20%-churn stream with
// a static query set holding a shared group (the two evaluators byte for
// byte; the reference, which orders a cell its own way, sorted) — and
// the default evaluator and the reference must have dispatched and
// delivered exactly the same. InsertCalls is left out: it depends on
// adjacency order, and the reference's graph compacts a deleted edge's
// cell at once while the evaluator's does so at the end of the batch.
func TestInlineMatchesReference(t *testing.T) {
	stream := churnStream(2020, 900, 0.20)
	newEval := func() (*MultiEvaluator, map[*Query]int) {
		qs := append(shardQueries(), MustCompile("a|(a/b*)")) // ≡ a/b*: one shared group
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

	inline, idx := newEval()
	defer inline.Close()
	want, wantRaw := collectCanon(t, inline, idx, stream, 50)
	if len(want) == 0 {
		t.Fatal("no results; test is vacuous")
	}

	sharded, idx := newEval()
	if err := sharded.WithShards(2); err != nil {
		t.Fatal(err)
	}
	_, gotRaw := collectCanon(t, sharded, idx, stream, 50)
	sharded.Close()
	if !reflect.DeepEqual(wantRaw, gotRaw) {
		t.Fatalf("WithShards(2) diverges from the default evaluator (%d vs %d result groups)", len(gotRaw), len(wantRaw))
	}

	// The reference runs over the default evaluator's own bound automata
	// and dictionary ids.
	ref, err := core.NewMulti(window.Spec{Size: 25, Slide: 5})
	if err != nil {
		t.Fatal(err)
	}
	var refCanon []facadeEntry
	var cur int
	for qi, q := range inline.queries {
		emit := func(inval bool) func(core.Match) {
			return func(m core.Match) {
				refCanon = append(refCanon, facadeEntry{Tuple: cur, Query: qi, Inval: inval, M: inline.fe.decode(m)})
			}
		}
		sink := core.FuncSink{Match: emit(false), Invalidate: emit(true)}
		if _, err := ref.Add(inline.fe.bind(q), core.WithSink(sink)); err != nil {
			t.Fatal(err)
		}
	}
	for i, tu := range stream {
		cur = i
		ref.Process(inline.fe.encode(tu))
	}
	sort.Slice(refCanon, func(i, j int) bool { return lessEntry(&refCanon[i], &refCanon[j]) })
	if !reflect.DeepEqual(want, refCanon) {
		t.Fatalf("default evaluator diverges from the reference coordinator (%d vs %d entries)", len(want), len(refCanon))
	}
	is, rs := inline.Stats(), ref.Stats()
	if is.Dispatches != rs.Dispatches || is.RelevanceSkips != rs.RelevanceSkips ||
		is.Results != rs.Results || is.Invalidations != rs.Invalidations {
		t.Fatalf("work counters differ:\ndefault   %+v\nreference %+v", is, rs)
	}
	if is.Invalidations == 0 || is.SharedGroups != 1 {
		t.Fatalf("deletion or sharing coverage is vacuous: %+v", is)
	}
}

// streamrpqGoroutines returns the stack of every goroutine except the
// caller's that runs streamrpq code or was started by it, keyed by its
// goroutine id.
func streamrpqGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	// The caller's goroutine is dumped first; the others follow, one
	// blank line apart.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, l := range strings.Split(g, "\n") {
			l = strings.TrimPrefix(l, "created by ")
			if strings.HasPrefix(l, "streamrpq.") || strings.HasPrefix(l, "streamrpq/") {
				out[strings.Fields(g)[1]] = g // "goroutine <id> [<state>]:"
				break
			}
		}
	}
	return out
}

// TestDefaultEvaluatorStartsNoGoroutine: the default mode runs on the
// caller — nothing to release, so nothing may be started: no goroutine
// running engine code appears across construction and 1000 batches
// with no Close. Goroutines other tests left behind, or unrelated ones
// that come and go, do not count.
func TestDefaultEvaluatorStartsNoGoroutine(t *testing.T) {
	before := streamrpqGoroutines()
	m, err := NewMultiEvaluator(20, 2, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	stream := churnStream(5, 4000, 0.1)
	for i := 0; i < len(stream); i += 4 {
		if _, err := m.IngestBatch(stream[i : i+4]); err != nil {
			t.Fatal(err)
		}
	}
	for id, stack := range streamrpqGoroutines() {
		if _, ok := before[id]; !ok {
			t.Fatalf("1000 batches on the default evaluator left a goroutine running engine code:\n%s", stack)
		}
	}
}

// TestRecoverParentWrittenState: testdata/recover-seq-v4 holds a v4
// snapshot and WAL tail written by the last commit whose default
// evaluator was the sequential core.Multi backend (see its README).
// Recover must restore it into a one-shard coordinator — no format
// change, no version bump — and continue byte-identically to an
// uninterrupted run of the current code. Its graph holds only the
// queries' labels (the stream's likes edges were dropped), so the
// recovered evaluator refuses AddQuery — it would bootstrap a query from
// part of the window — and so does one recovered from its own later
// checkpoint; the refusal changes neither the continuation nor Edges.
func TestRecoverParentWrittenState(t *testing.T) {
	dir, stream := openFixture(t, "testdata/recover-seq-v4")
	m, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(redelivered) != 0 {
		t.Fatalf("every batch was committed, yet %d results redelivered", len(redelivered))
	}
	if m.NumShards() != 1 || m.NumQueries() != 4 || m.AppliedTuples() != 256 {
		t.Fatalf("recovered shards=%d queries=%d applied=%d, want 1, 4, 256",
			m.NumShards(), m.NumQueries(), m.AppliedTuples())
	}
	if st := m.Stats(); st.Groups != 3 || st.SharedGroups != 1 {
		t.Fatalf("recovered sharing layout: %d groups, %d shared, want 3/1", st.Groups, st.SharedGroups)
	}
	if _, err := m.AddQuery(MustCompile("likes+")); err == nil {
		t.Fatal("AddQuery accepted on a recovered graph that lacks the window's likes edges")
	}
	got := ingestFixture(t, m, stream, 16, len(stream))

	var qs []*Query
	for _, q := range m.RegisteredQueries() {
		qs = append(qs, MustCompile(q.String()))
	}
	ref, err := NewMultiEvaluator(15, 3, qs...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []flatResult
	for _, r := range ingestFixture(t, ref, stream, 0, len(stream)) {
		if r.Batch >= 16 {
			want = append(want, r)
		}
	}
	if len(want) == 0 {
		t.Fatal("no results after the crash point; test is vacuous")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("continuation after recovering the parent-written state diverges (%d vs %d results): %s",
			len(got), len(want), firstDiff(want, got))
	}
	if rs, ms := ref.Stats(), m.Stats(); rs.Results != ms.Results || rs.Invalidations != ms.Invalidations ||
		rs.Edges != ms.Edges || rs.TuplesSeen != ms.TuplesSeen {
		t.Fatalf("recovered counters diverge from the uninterrupted run:\nwant %+v\ngot  %+v", rs, ms)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	again, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if _, err := again.AddQuery(MustCompile("likes+")); err == nil {
		t.Fatal("AddQuery accepted after recovering the checkpoint of a registration-closed evaluator")
	}
}

// openFixture copies a persistence fixture's state directory into a
// fresh directory (Recover takes the directory lock and appends to the
// WAL) and reads its input stream.
func openFixture(t *testing.T, fixture string) (string, []Tuple) {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(fixture, "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, "state", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in, err := os.Open(filepath.Join(fixture, "input.stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var stream []Tuple
	if err := scanTupleLines(in, func(_ int, tu Tuple) error {
		stream = append(stream, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dir, stream
}

// ingestFixture ingests a fixture's stream from batch from on, in its
// writer's batches of 16, up to tuple end.
func ingestFixture(t *testing.T, m *MultiEvaluator, stream []Tuple, from, end int) []flatResult {
	t.Helper()
	var out []flatResult
	for b := from; b*16 < end; b++ {
		brs, err := m.IngestBatch(stream[b*16 : min(b*16+16, end)])
		if err != nil {
			t.Fatal(err)
		}
		out = flatten(out, b, brs)
	}
	return out
}

// TestRecoverParentWrittenStarState: testdata/recover-star-v4 holds a
// v4 snapshot and WAL tail of (a|b)*, (a|b)+ and a*, written before a
// query whose start state is its only final state was bound as
// L \ {ε} (see its README): its states number (a|b)* and a* for their
// own automata. Recover restores (a|b)*'s group, now (a|b)+'s, from
// (a|b)+'s state and rebuilds a*'s from the window; the continuation,
// through a v5 checkpoint and a second recovery, equals an uninterrupted
// run record for record, and so do the delivery counters.
func TestRecoverParentWrittenStarState(t *testing.T) {
	dir, stream := openFixture(t, "testdata/recover-star-v4")
	m, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(redelivered) != 0 {
		t.Fatalf("every batch was committed, yet %d results redelivered", len(redelivered))
	}
	if m.NumQueries() != 3 || m.AppliedTuples() != 256 {
		t.Fatalf("recovered queries=%d applied=%d, want 3, 256", m.NumQueries(), m.AppliedTuples())
	}
	if st := m.Stats(); st.Groups != 2 || st.SharedGroups != 1 {
		t.Fatalf("recovered sharing layout: %d groups, %d shared, want 2/1", st.Groups, st.SharedGroups)
	}
	got := ingestFixture(t, m, stream, 16, 20*16)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	again, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	got = append(got, ingestFixture(t, again, stream, 20, len(stream))...)

	var qs []*Query
	for _, q := range again.RegisteredQueries() {
		qs = append(qs, MustCompile(q.String()))
	}
	ref, err := NewMultiEvaluator(15, 3, qs...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []flatResult
	selfPairs := map[string]int{}
	for _, r := range ingestFixture(t, ref, stream, 0, len(stream)) {
		if r.Batch >= 16 {
			want = append(want, r)
			if r.From == r.To {
				selfPairs[r.Query]++
			}
		}
	}
	if selfPairs["(a|b)+"] == 0 || len(selfPairs) != 1 {
		t.Fatalf("(x, x) records after the crash point by query: %v, want some for (a|b)+ only; test is vacuous", selfPairs)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("continuation after recovering the parent-written state diverges (%d vs %d results): %s",
			len(got), len(want), firstDiff(want, got))
	}
	if rs, ms := ref.Stats(), again.Stats(); rs.Results != ms.Results || rs.Invalidations != ms.Invalidations ||
		rs.Edges != ms.Edges || rs.TuplesSeen != ms.TuplesSeen {
		t.Fatalf("recovered counters diverge from the uninterrupted run:\nwant %+v\ngot  %+v", rs, ms)
	}
}
