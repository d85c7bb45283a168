package streamrpq

import (
	"os"
	"strings"
	"testing"
)

// TestReplayFigure1 is the end-to-end integration test: text stream
// file → Replay → evaluator → result stream, on the paper's running
// example.
func TestReplayFigure1(t *testing.T) {
	f, err := os.Open("testdata/figure1.stream")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ev, err := NewEvaluator(MustCompile("(follows/mentions)+"), WithWindow(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]string]int64{}
	n, err := Replay(f, ev, func(m Match) {
		if _, ok := got[[2]string{m.From, m.To}]; !ok {
			got[[2]string{m.From, m.To}] = m.TS
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("replayed %d tuples, want 9", n)
	}
	want := map[[2]string]int64{
		{"x", "w"}: 11,
		{"x", "u"}: 13,
		{"u", "y"}: 18,
		{"x", "y"}: 18,
		{"x", "x"}: 19,
		{"w", "x"}: 19,
		{"w", "w"}: 19,
		{"w", "u"}: 19,
		{"w", "y"}: 19,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for p, ts := range want {
		if got[p] != ts {
			t.Errorf("pair %v discovered at %d, want %d", p, got[p], ts)
		}
	}
}

func TestReplayParseErrors(t *testing.T) {
	cases := []string{
		"nonsense line here extra",
		"abc u v l",
		"1 u v l *",
	}
	for _, in := range cases {
		ev, _ := NewEvaluator(MustCompile("l"), WithWindow(10, 1))
		if _, err := Replay(strings.NewReader(in), ev, nil); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestReplayErrorsCarryLineNumbers: parse errors name the 1-based line
// of the malformed input, comments and blank lines included in the
// count, so stream files are debuggable.
func TestReplayErrorsCarryLineNumbers(t *testing.T) {
	in := "# header\n1 a b l\n\nbogus line\n"
	ev, _ := NewEvaluator(MustCompile("l"), WithWindow(10, 1))
	_, err := Replay(strings.NewReader(in), ev, nil)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v does not name line 4", err)
	}
}

// TestReplayMulti drives the batch replay path, including resume-skip.
func TestReplayMulti(t *testing.T) {
	in := "# s\n1 a b l\n2 b c l\n3 c d l\n"
	mk := func() *MultiEvaluator {
		m, err := NewMultiEvaluator(10, 1, MustCompile("l/l"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := mk()
	defer m.Close()
	var got []string
	n, err := ReplayMulti(strings.NewReader(in), m, 2, 0, func(br BatchResult) {
		for _, mt := range br.Matches {
			got = append(got, mt.From+"->"+mt.To)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	if len(got) != 2 || got[0] != "a->c" || got[1] != "b->d" {
		t.Fatalf("matches = %v", got)
	}

	// Resume-skip: skipping the first two tuples replays only the rest.
	m2 := mk()
	defer m2.Close()
	n, err = ReplayMulti(strings.NewReader(in), m2, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("n after skip = %d, want 1", n)
	}

	// And parse errors carry line numbers here too.
	m3 := mk()
	defer m3.Close()
	if _, err := ReplayMulti(strings.NewReader("1 a b l\nnope\n"), m3, 2, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v does not name line 2", err)
	}

	// Out-of-order tuples are attributed to their own line, not to the
	// later batch flush (batchSize 8 would otherwise defer detection).
	m4 := mk()
	defer m4.Close()
	if _, err := ReplayMulti(strings.NewReader("5 a b l\n3 a b l\n9 a b l\n"), m4, 8, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("out-of-order error %v does not name line 2", err)
	}
}

func TestReplayCommentsAndBlank(t *testing.T) {
	in := "# header\n\n1 a b l\n  \n2 b c l\n"
	ev, _ := NewEvaluator(MustCompile("l/l"), WithWindow(10, 1))
	var ms []Match
	n, err := Replay(strings.NewReader(in), ev, func(m Match) { ms = append(ms, m) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if len(ms) != 1 || ms[0].From != "a" || ms[0].To != "c" {
		t.Fatalf("matches = %v", ms)
	}
}

func TestReplayDeletion(t *testing.T) {
	in := "1 a b l\n2 a b l -\n3 b c l\n"
	retracted := 0
	ev, _ := NewEvaluator(MustCompile("l"), WithWindow(10, 1),
		WithOnInvalidate(func(Match) { retracted++ }))
	if _, err := Replay(strings.NewReader(in), ev, nil); err != nil {
		t.Fatal(err)
	}
	if retracted != 1 {
		t.Fatalf("retracted = %d, want 1", retracted)
	}
}

// TestReplayOutOfOrderSurfacesError: both replay paths reject an
// out-of-order stream with the same message, naming the line.
func TestReplayOutOfOrderSurfacesError(t *testing.T) {
	in := "5 a b l\n3 a b l\n"
	const want = "streamrpq: line 2: out-of-order tuple: ts 3 after 5"
	ev, _ := NewEvaluator(MustCompile("l"), WithWindow(10, 1))
	if _, err := Replay(strings.NewReader(in), ev, nil); err == nil || err.Error() != want {
		t.Fatalf("Replay: error %v, want %q", err, want)
	}
	m, err := NewMultiEvaluator(10, 1, MustCompile("l"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := ReplayMulti(strings.NewReader(in), m, 8, 0, nil); err == nil || err.Error() != want {
		t.Fatalf("ReplayMulti: error %v, want %q", err, want)
	}
}

// TestReplayFlushesSlack: Replay drains the reorder buffer at the end of
// the stream, so a WithSlack evaluator reports the same matches as one
// without slack, and a tuple ingested afterwards must be newer than the
// stream's last.
func TestReplayFlushesSlack(t *testing.T) {
	const in = "1 x y a\n2 y z b\n"
	for _, slack := range []int64{0, 5} {
		opts := []Option{WithWindow(100, 1)}
		if slack > 0 {
			opts = append(opts, WithSlack(slack))
		}
		ev, err := NewEvaluator(MustCompile("a/b"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var ms []Match
		n, err := Replay(strings.NewReader(in), ev, func(m Match) { ms = append(ms, m) })
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 || len(ms) != 1 || ms[0].From != "x" || ms[0].To != "z" || ms[0].TS != 2 {
			t.Fatalf("slack %d: %d tuples, matches %v; want 2 tuples and x→z at 2", slack, n, ms)
		}
		if slack > 0 {
			if _, err := ev.Ingest(Tuple{TS: 2, Src: "z", Dst: "w", Label: "a"}); err == nil {
				t.Fatalf("slack %d: a tuple at the flushed stream's last timestamp was accepted", slack)
			}
		}
	}
}
