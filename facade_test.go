package streamrpq

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestMultiEvaluator(t *testing.T) {
	q1 := MustCompile("knows+")
	q2 := MustCompile("knows/likes")
	m, err := NewMultiEvaluator(100, 10, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", m.NumQueries())
	}

	seq := []Tuple{
		{TS: 1, Src: "a", Dst: "b", Label: "knows"},
		{TS: 2, Src: "b", Dst: "c", Label: "knows"},
		{TS: 3, Src: "c", Dst: "p", Label: "likes"},
	}
	got := map[string]map[[2]string]bool{}
	for _, tu := range seq {
		results, err := m.Ingest(tu)
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range results {
			name := qr.Query.String()
			if got[name] == nil {
				got[name] = map[[2]string]bool{}
			}
			for _, match := range qr.Matches {
				got[name][[2]string{match.From, match.To}] = true
			}
		}
	}
	if !got["knows+"][[2]string{"a", "b"}] || !got["knows+"][[2]string{"a", "c"}] {
		t.Errorf("knows+ results: %v", got["knows+"])
	}
	if !got["knows/likes"][[2]string{"b", "p"}] {
		t.Errorf("knows/likes results: %v", got["knows/likes"])
	}
	if got["knows/likes"][[2]string{"a", "p"}] {
		t.Errorf("knows/likes matched a 3-hop path: %v", got["knows/likes"])
	}
	if st := m.Stats(); st.Edges != 3 {
		t.Errorf("shared graph edges = %d, want 3", st.Edges)
	}
}

func TestMultiEvaluatorOutOfOrder(t *testing.T) {
	m, err := NewMultiEvaluator(10, 1, MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(Tuple{TS: 5, Src: "u", Dst: "v", Label: "a"})
	if _, err := m.Ingest(Tuple{TS: 4, Src: "u", Dst: "v", Label: "a"}); err == nil {
		t.Fatal("out-of-order accepted")
	}
}

// TestIngestBatchAllocs pins the facade's allocations per 32-tuple
// IngestBatch on the default evaluator: admission, encoding, the
// engine and result decoding together. The window drops every batch
// before the next, so each one rebuilds the same graph and finds the
// same 52 matches.
func TestIngestBatchAllocs(t *testing.T) {
	m, err := NewMultiEvaluator(1, 1, shardQueries()...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batch := make([]Tuple, 32)
	for i := range batch {
		batch[i] = Tuple{Src: "v" + strconv.Itoa(i%8), Dst: "v" + strconv.Itoa((i*3+1)%8), Label: []string{"a", "b"}[i%2]}
	}
	var ts int64
	matches := 0
	ingest := func() {
		ts += 2
		for i := range batch {
			batch[i].TS = ts
		}
		brs, err := m.IngestBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		matches = 0
		for _, br := range brs {
			matches += len(br.Matches)
		}
	}
	for i := 0; i < 5; i++ {
		ingest() // grow the dictionaries and the engines' buffers
	}
	avg := testing.AllocsPerRun(100, ingest)
	if matches != 52 {
		t.Fatalf("batch found %d matches, want 52", matches)
	}
	if avg > 159 {
		t.Errorf("IngestBatch of 32 tuples allocates %.0f times, want at most 159", avg)
	}
}

// TestAddQueryLargeAutomatonAllocs: registering an arbitrary-path
// query builds its bound automaton and bootstraps its group, and
// nothing quadratic in the automaton: (a|b)*/a followed by eleven
// /(a|b) has 4 096 states, whose k×k containment matrix only the
// simple-path engine reads. That matrix and its fixpoint alone allocate
// about 70 MB and take seconds for this automaton.
func TestAddQueryLargeAutomatonAllocs(t *testing.T) {
	q := MustCompile("(a|b)*/a" + strings.Repeat("/(a|b)", 11))
	if n := q.dfa.NumStates(); n != 4096 {
		t.Fatalf("pattern compiles to %d states, want 4096", n)
	}
	m, err := NewMultiEvaluator(100, 1, MustCompile("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batch := make([]Tuple, 32)
	for i := range batch {
		batch[i] = Tuple{TS: int64(i + 1), Src: "v" + strconv.Itoa(i%8), Dst: "v" + strconv.Itoa((i*3+1)%8), Label: []string{"a", "b"}[i%2]}
	}
	if _, err := m.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := m.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("AddQuery allocated %.2f MB", float64(got)/(1<<20))
	if got > 8<<20 {
		t.Errorf("AddQuery of a %d-state automaton allocated %.1f MB, want under 8 MB", q.dfa.NumStates(), float64(got)/(1<<20))
	}
}

// TestBatchResultRunsDoNotAlias: the runs of one batch share a backing
// array, so appending to one BatchResult's Matches or Invalidations must
// copy rather than overwrite the records of the run after it. Tuples 1
// and 2 each yield a run for both queries; the match runs of tuple 1 sit
// right before the invalidation runs of tuple 2.
func TestBatchResultRunsDoNotAlias(t *testing.T) {
	m, err := NewMultiEvaluator(100, 1, MustCompile("a+"), MustCompile("a/a"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	brs, err := m.IngestBatch([]Tuple{
		{TS: 1, Src: "x", Dst: "y", Label: "a"},
		{TS: 1, Src: "y", Dst: "z", Label: "a"},
		{TS: 2, Src: "x", Dst: "y", Label: "a", Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(brs) != 5 || brs[1].Tuple != 1 || brs[2].Tuple != 1 || brs[3].Tuple != 2 || brs[4].Tuple != 2 ||
		len(brs[1].Matches) != 2 || len(brs[3].Invalidations) != 2 {
		t.Fatalf("batch does not have the expected runs: %+v", brs)
	}
	want := make([]BatchResult, len(brs))
	for i, br := range brs {
		want[i] = br
		want[i].Matches, want[i].Invalidations = slices.Clone(br.Matches), slices.Clone(br.Invalidations)
	}
	sentinel := Match{From: "appended", To: "appended", TS: -1}
	for _, br := range brs {
		_ = append(br.Matches, sentinel)
		_ = append(br.Invalidations, sentinel)
	}
	if !reflect.DeepEqual(brs, want) {
		t.Fatalf("an append to one run overwrote another:\n got %+v\nwant %+v", brs, want)
	}
}

func TestMultiEvaluatorBadWindow(t *testing.T) {
	if _, err := NewMultiEvaluator(0, 1, MustCompile("a")); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// TestSlackReordersTuples: with WithSlack the evaluator accepts
// bounded disorder and produces the same results as an ordered run.
func TestSlackReordersTuples(t *testing.T) {
	q := MustCompile("a/b")
	ordered, _ := NewEvaluator(q, WithWindow(50, 5))
	slacked, _ := NewEvaluator(q, WithWindow(50, 5), WithSlack(10))

	orderedSeq := []Tuple{
		{TS: 1, Src: "x", Dst: "y", Label: "a"},
		{TS: 3, Src: "y", Dst: "z", Label: "b"},
		{TS: 5, Src: "z", Dst: "w", Label: "a"},
		{TS: 7, Src: "w", Dst: "v", Label: "b"},
	}
	shuffled := []Tuple{orderedSeq[1], orderedSeq[0], orderedSeq[3], orderedSeq[2]}

	collect := func(ev *Evaluator, seq []Tuple) map[[2]string]bool {
		out := map[[2]string]bool{}
		for _, tu := range seq {
			for _, m := range ev.MustIngest(tu) {
				out[[2]string{m.From, m.To}] = true
			}
		}
		for _, m := range ev.Flush() {
			out[[2]string{m.From, m.To}] = true
		}
		return out
	}
	want := collect(ordered, orderedSeq)
	got := collect(slacked, shuffled)
	if len(want) != len(got) {
		t.Fatalf("ordered %v, slacked %v", want, got)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v missing from slacked run", p)
		}
	}
}

func TestSlackLateTupleRejected(t *testing.T) {
	ev, _ := NewEvaluator(MustCompile("a"), WithWindow(50, 5), WithSlack(2))
	ev.MustIngest(Tuple{TS: 10, Src: "u", Dst: "v", Label: "a"}) // watermark 8
	if _, err := ev.Ingest(Tuple{TS: 7, Src: "u", Dst: "v", Label: "a"}); err == nil {
		t.Fatal("late tuple accepted")
	}
}

func TestFlushWithoutSlack(t *testing.T) {
	ev, _ := NewEvaluator(MustCompile("a"), WithWindow(10, 1))
	if ms := ev.Flush(); len(ms) != 0 {
		t.Fatalf("Flush without slack returned %v", ms)
	}
}
