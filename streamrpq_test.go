package streamrpq

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
)

func TestCompile(t *testing.T) {
	q, err := Compile("(follows/mentions)+")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != 3 {
		t.Errorf("NumStates = %d, want 3", q.NumStates())
	}
	if got := q.Alphabet(); len(got) != 2 || got[0] != "follows" || got[1] != "mentions" {
		t.Errorf("Alphabet = %v", got)
	}
	if q.Size() != 3 {
		t.Errorf("Size = %d, want 3", q.Size())
	}
	if q.ConflictFreeEverywhere() {
		t.Error("(follows/mentions)+ should not have the containment property")
	}
	if !MustCompile("(a|b)*").ConflictFreeEverywhere() {
		t.Error("(a|b)* should have the containment property")
	}
	if _, err := Compile("a|"); err == nil {
		t.Error("bad expression compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	MustCompile("(((")
}

// TestEvaluatorPaperExample drives the full public API over the paper's
// Figure 1 stream.
func TestEvaluatorPaperExample(t *testing.T) {
	q := MustCompile("(follows/mentions)+")
	ev, err := NewEvaluator(q, WithWindow(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	type ed struct {
		ts      int64
		s, d, l string
	}
	edges := []ed{
		{4, "y", "u", "mentions"},
		{6, "x", "z", "follows"},
		{9, "u", "v", "follows"},
		{11, "z", "w", "mentions"},
		{13, "x", "y", "follows"},
		{14, "z", "u", "mentions"},
		{15, "u", "x", "mentions"},
		{18, "v", "y", "mentions"},
		{19, "w", "u", "follows"},
	}
	found := map[[2]string]int64{}
	for _, e := range edges {
		ms, err := ev.Ingest(Tuple{TS: e.ts, Src: e.s, Dst: e.d, Label: e.l})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if _, ok := found[[2]string{m.From, m.To}]; !ok {
				found[[2]string{m.From, m.To}] = m.TS
			}
		}
	}
	// The pair (x,y) of the paper's running example must be discovered
	// at t=18.
	if ts, ok := found[[2]string{"x", "y"}]; !ok || ts != 18 {
		t.Errorf("(x,y) found at %d (ok=%v), want 18", ts, ok)
	}
	if ts, ok := found[[2]string{"x", "w"}]; !ok || ts != 11 {
		t.Errorf("(x,w) found at %d (ok=%v), want 11", ts, ok)
	}
	st := ev.Stats()
	if st.TuplesSeen != int64(len(edges)) {
		t.Errorf("TuplesSeen = %d, want %d", st.TuplesSeen, len(edges))
	}
}

func TestEvaluatorSimpleSemantics(t *testing.T) {
	q := MustCompile("(a/b)+")
	ev, err := NewEvaluator(q, WithWindow(100, 1), WithSemantics(Simple))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Semantics() != Simple {
		t.Fatal("semantics not simple")
	}
	// x-a->y-b->u-a->v-b->y is not simple for (x,y); x-a->z-b->u gives
	// the simple witness x,z,u,v,y.
	seq := []Tuple{
		{TS: 1, Src: "x", Dst: "y", Label: "a"},
		{TS: 2, Src: "y", Dst: "u", Label: "b"},
		{TS: 3, Src: "u", Dst: "v", Label: "a"},
		{TS: 4, Src: "x", Dst: "z", Label: "a"},
		{TS: 5, Src: "z", Dst: "u", Label: "b"},
		{TS: 6, Src: "v", Dst: "y", Label: "b"},
	}
	got := map[[2]string]bool{}
	for _, tu := range seq {
		for _, m := range ev.MustIngest(tu) {
			got[[2]string{m.From, m.To}] = true
		}
	}
	if !got[[2]string{"x", "y"}] {
		t.Errorf("(x,y) missing under simple semantics: %v", got)
	}
}

// TestCompileRejectsOversizedAutomaton: the engines key tree nodes by
// (vertex, 16-bit state), so a pattern whose minimal DFA has more states
// would alias distinct nodes; Compile must say no instead of returning a
// query that answers wrongly. Compile refuses a real pattern of that
// size while determinizing it (TestCompileRefusesLargeSubsetAutomaton),
// so the oversized minimal automaton is synthetic and enters where
// Compile hands its own to.
func TestCompileRejectsOversizedAutomaton(t *testing.T) {
	fits := "(a|b)*/a" + strings.Repeat("/(a|b)", 6)
	q, err := Compile(fits)
	if err != nil {
		t.Fatalf("Compile(%q): %v", fits, err)
	}
	if q.NumStates() != 1<<7 {
		t.Fatalf("%q: NumStates = %d, want %d", fits, q.NumStates(), 1<<7)
	}
	if _, err := newQuery("max", q.expr, &automaton.DFA{Trans: make([]map[string]int, core.MaxStates)}); err != nil {
		t.Errorf("an automaton of exactly MaxStates states was rejected: %v", err)
	}
	_, err = newQuery("oversized", q.expr, &automaton.DFA{Trans: make([]map[string]int, core.MaxStates+1)})
	if err == nil || !strings.Contains(err.Error(), "automaton states") {
		t.Errorf("an automaton of MaxStates+1 states: err = %v, want a state-count error", err)
	}
}

// TestCompileRefusesLargeSubsetAutomaton: subset construction stops at
// the engines' state bound, so a pattern whose subset automaton has
// 2^17 + 1 states is refused after building little more than half of
// it, within a bounded allocation.
func TestCompileRefusesLargeSubsetAutomaton(t *testing.T) {
	src := "(a|b)*/a" + strings.Repeat("/(a|b)", 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Compile(src)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("exceeds %d states", core.MaxStates); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Compile(%q): err = %v, want one that says it %s", src, err, want)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("refused in %v after allocating %.1f MB", elapsed, mb)
	if mb > 100 {
		t.Fatalf("refusal allocated %.1f MB, want under 100", mb)
	}
}

// TestEvaluatorBudgetExceeded: a tripped WithMaxExtends bound drops
// results, so it must be visible through the facade.
func TestEvaluatorBudgetExceeded(t *testing.T) {
	q := MustCompile("(a/b)+") // conflict-prone: no containment property
	replay := func(opts ...Option) *Evaluator {
		ev, err := NewEvaluator(q, append([]Option{WithWindow(18, 1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			ev.MustIngest(Tuple{
				TS:    int64(i),
				Src:   "v" + strconv.Itoa(rng.Intn(7)),
				Dst:   "v" + strconv.Itoa(rng.Intn(7)),
				Label: string("ab"[rng.Intn(2)]),
			})
		}
		return ev
	}
	if !replay(WithSemantics(Simple), WithMaxExtends(3)).BudgetExceeded() {
		t.Error("a 3-extend budget on a conflict-heavy stream did not report BudgetExceeded")
	}
	if ev := replay(WithSemantics(Simple)); ev.BudgetExceeded() {
		t.Error("BudgetExceeded without a budget")
	} else if ev.Stats().ConflictsFound == 0 {
		t.Error("the stream is not conflict-heavy: no conflict found")
	}
	if replay(WithMaxExtends(3)).BudgetExceeded() {
		t.Error("BudgetExceeded under Arbitrary semantics")
	}
}

func TestEvaluatorDeletionsInvalidate(t *testing.T) {
	q := MustCompile("a/b")
	var retracted []Match
	ev, err := NewEvaluator(q,
		WithWindow(100, 1),
		WithOnInvalidate(func(m Match) { retracted = append(retracted, m) }))
	if err != nil {
		t.Fatal(err)
	}
	ev.MustIngest(Tuple{TS: 1, Src: "a1", Dst: "a2", Label: "a"})
	ms := ev.MustIngest(Tuple{TS: 2, Src: "a2", Dst: "a3", Label: "b"})
	if len(ms) != 1 || ms[0].From != "a1" || ms[0].To != "a3" {
		t.Fatalf("matches = %v", ms)
	}
	ev.MustIngest(Tuple{TS: 3, Src: "a1", Dst: "a2", Label: "a", Delete: true})
	if len(retracted) != 1 || retracted[0].From != "a1" || retracted[0].To != "a3" {
		t.Fatalf("retracted = %v", retracted)
	}
}

func TestEvaluatorOutOfOrderRejected(t *testing.T) {
	ev, _ := NewEvaluator(MustCompile("a"), WithWindow(10, 1))
	ev.MustIngest(Tuple{TS: 5, Src: "u", Dst: "v", Label: "a"})
	if _, err := ev.Ingest(Tuple{TS: 4, Src: "u", Dst: "v", Label: "a"}); err == nil {
		t.Fatal("out-of-order tuple accepted")
	}
}

// TestRejectedTupleInternsNothing: a tuple rejected as out of order,
// or as late under WithSlack, leaves the dictionaries as they were —
// its names are never interned.
func TestRejectedTupleInternsNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		accepted Tuple
		rejected Tuple
	}{
		{"out-of-order", nil,
			Tuple{TS: 5, Src: "u", Dst: "v", Label: "a"}, Tuple{TS: 4, Src: "p", Dst: "q", Label: "z"}},
		{"late", []Option{WithSlack(2)},
			Tuple{TS: 10, Src: "u", Dst: "v", Label: "a"}, Tuple{TS: 7, Src: "p", Dst: "q", Label: "z"}},
	} {
		ev, err := NewEvaluator(MustCompile("a"), append([]Option{WithWindow(50, 1)}, tc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		ev.MustIngest(tc.accepted)
		vertices, labels := ev.fe.vertices.Len(), ev.fe.labels.Len()
		if _, err := ev.Ingest(tc.rejected); err == nil {
			t.Fatalf("%s: tuple accepted", tc.name)
		}
		if ev.fe.vertices.Len() != vertices || ev.fe.labels.Len() != labels {
			t.Fatalf("%s: rejected tuple grew the dictionaries: vertices %d -> %d, labels %d -> %d",
				tc.name, vertices, ev.fe.vertices.Len(), labels, ev.fe.labels.Len())
		}
	}
}

func TestEvaluatorBadWindow(t *testing.T) {
	if _, err := NewEvaluator(MustCompile("a"), WithWindow(0, 1)); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewEvaluator(MustCompile("a"), WithWindow(10, 20)); err == nil {
		t.Fatal("slide > size accepted")
	}
}

func TestEvaluatorIrrelevantLabel(t *testing.T) {
	ev, _ := NewEvaluator(MustCompile("a"), WithWindow(10, 1))
	ms := ev.MustIngest(Tuple{TS: 1, Src: "u", Dst: "v", Label: "other"})
	if len(ms) != 0 {
		t.Fatalf("irrelevant label produced matches: %v", ms)
	}
	if st := ev.Stats(); st.TuplesDropped != 1 {
		t.Fatalf("TuplesDropped = %d, want 1", st.TuplesDropped)
	}
}

func TestEvaluatorWindowExpiryNoRetraction(t *testing.T) {
	// Implicit windows: expiry must not call the invalidation hook.
	var retracted []Match
	ev, _ := NewEvaluator(MustCompile("a"), WithWindow(5, 1),
		WithOnInvalidate(func(m Match) { retracted = append(retracted, m) }))
	ev.MustIngest(Tuple{TS: 1, Src: "u", Dst: "v", Label: "a"})
	ev.MustIngest(Tuple{TS: 100, Src: "p", Dst: "q", Label: "a"})
	if len(retracted) != 0 {
		t.Fatalf("window expiry retracted results: %v", retracted)
	}
}
