package streamrpq

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"streamrpq/internal/core"
	"streamrpq/internal/window"
)

// TestInlineMatchesReference: the default evaluator (the inline
// coordinator), the reference coordinator core.Multi fed the same
// encoded tuples, and the pipelined WithShards(2) evaluator must
// produce the same canonical (timestamp-keyed) result stream on a
// 20%-churn stream with a static query set holding a shared group — and
// inline and reference, both tuple at a time, must have done exactly
// the same work.
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
	want, _ := collectCanon(t, inline, idx, stream, 50)
	if len(want) == 0 {
		t.Fatal("no results; test is vacuous")
	}

	sharded, idx := newEval()
	if err := sharded.WithShards(2); err != nil {
		t.Fatal(err)
	}
	got, _ := collectCanon(t, sharded, idx, stream, 50)
	sharded.Close()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("WithShards(2) diverges from the default evaluator (%d vs %d entries)", len(got), len(want))
	}

	// The reference runs over the inline evaluator's own bound automata
	// and dictionary ids.
	ref, err := core.NewMulti(window.Spec{Size: 25, Slide: 5})
	if err != nil {
		t.Fatal(err)
	}
	var refCanon []facadeEntry
	var ts int64
	for qi, member := range inline.queries {
		emit := func(inval bool) func(core.Match) {
			return func(m core.Match) {
				refCanon = append(refCanon, facadeEntry{TS: ts, Query: qi, Inval: inval, M: inline.decode(m)})
			}
		}
		sink := core.FuncSink{Match: emit(false), Invalidate: emit(true)}
		if _, err := ref.Add(member.bound, core.WithSink(sink)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range stream {
		ts = tu.TS
		ref.Process(inline.encode(tu))
	}
	sort.Slice(refCanon, func(i, j int) bool { return lessEntry(&refCanon[i], &refCanon[j]) })
	if !reflect.DeepEqual(want, refCanon) {
		t.Fatalf("default evaluator diverges from the reference coordinator (%d vs %d entries)", len(want), len(refCanon))
	}
	is, rs := inline.Stats(), ref.Stats()
	if is.InsertCalls != rs.InsertCalls || is.Dispatches != rs.Dispatches || is.RelevanceSkips != rs.RelevanceSkips ||
		is.Results != rs.Results || is.Invalidations != rs.Invalidations {
		t.Fatalf("work counters differ:\ninline    %+v\nreference %+v", is, rs)
	}
	if is.Invalidations == 0 || is.SharedGroups != 1 {
		t.Fatalf("deletion or sharing coverage is vacuous: %+v", is)
	}
}

// TestDefaultEvaluatorStartsNoGoroutine: the default mode runs on the
// caller — nothing to release, so nothing may be started: the goroutine
// count is unchanged across construction and 1000 batches with no
// Close.
func TestDefaultEvaluatorStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
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
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after 1000 batches on the default evaluator", before, after)
	}
}

// TestRecoverParentWrittenState: testdata/recover-seq-v4 holds a v4
// snapshot and WAL tail written by the last commit whose default
// evaluator was the sequential core.Multi backend (see its README).
// Recover must restore it into the inline coordinator — no format
// change, no version bump — and continue byte-identically to an
// uninterrupted run of the current code.
func TestRecoverParentWrittenState(t *testing.T) {
	const fixture = "testdata/recover-seq-v4"
	dir := t.TempDir() // Recover takes the directory lock and appends to the WAL
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
	// run ingests the stream from the given batch on, in the writer's
	// batches of 16.
	run := func(m *MultiEvaluator, from int) []flatResult {
		t.Helper()
		var out []flatResult
		for b := from; b*16 < len(stream); b++ {
			brs, err := m.IngestBatch(stream[b*16 : min(b*16+16, len(stream))])
			if err != nil {
				t.Fatal(err)
			}
			out = flatten(out, b, brs)
		}
		return out
	}

	m, redelivered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(redelivered) != 0 {
		t.Fatalf("every batch was committed, yet %d results redelivered", len(redelivered))
	}
	if !m.eng.Inline() || m.NumQueries() != 4 || m.AppliedTuples() != 256 {
		t.Fatalf("recovered inline=%v queries=%d applied=%d, want the inline coordinator, 4, 256",
			m.eng.Inline(), m.NumQueries(), m.AppliedTuples())
	}
	if st := m.Stats(); st.Groups != 3 || st.SharedGroups != 1 {
		t.Fatalf("recovered sharing layout: %d groups, %d shared, want 3/1", st.Groups, st.SharedGroups)
	}
	got := run(m, 16)

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
	for _, r := range run(ref, 0) {
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
}
