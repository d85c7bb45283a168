package streamrpq

import (
	"errors"
	"testing"

	"streamrpq/internal/stream"
)

func TestEdgeFilterRejects(t *testing.T) {
	ev, err := NewEvaluator(MustCompile("pays/pays"),
		WithWindow(100, 10),
		WithEdgeFilter(func(tu Tuple) bool { return tu.Props["amount"] == "big" }))
	if err != nil {
		t.Fatal(err)
	}
	big := map[string]string{"amount": "big"}
	small := map[string]string{"amount": "small"}

	ev.MustIngest(Tuple{TS: 1, Src: "a", Dst: "b", Label: "pays", Props: big})
	// The small middle hop is filtered, so no 2-hop result may form.
	ev.MustIngest(Tuple{TS: 2, Src: "b", Dst: "c", Label: "pays", Props: small})
	ms := ev.MustIngest(Tuple{TS: 3, Src: "b", Dst: "d", Label: "pays", Props: big})
	found := map[[2]string]bool{}
	for _, m := range ms {
		found[[2]string{m.From, m.To}] = true
	}
	if !found[[2]string{"a", "d"}] {
		t.Errorf("a->d missing: %v", found)
	}
	if found[[2]string{"a", "c"}] {
		t.Errorf("a->c formed through a filtered edge")
	}
}

func TestEdgeFilterAdvancesClock(t *testing.T) {
	ev, _ := NewEvaluator(MustCompile("a/a"),
		WithWindow(5, 1),
		WithEdgeFilter(func(tu Tuple) bool { return tu.Props["keep"] == "y" }))
	keep := map[string]string{"keep": "y"}
	drop := map[string]string{"keep": "n"}

	ev.MustIngest(Tuple{TS: 1, Src: "a", Dst: "b", Label: "a", Props: keep})
	// Filtered tuples far in the future must still expire the window.
	ev.MustIngest(Tuple{TS: 50, Src: "x", Dst: "y", Label: "a", Props: drop})
	ms := ev.MustIngest(Tuple{TS: 51, Src: "b", Dst: "c", Label: "a", Props: keep})
	if len(ms) != 0 {
		t.Fatalf("expired edge produced results: %v", ms)
	}
	if st := ev.Stats(); st.Edges > 1 {
		t.Fatalf("window holds %d edges; the t=1 edge should have expired", st.Edges)
	}
}

func TestEdgeFilterExemptsDeletions(t *testing.T) {
	retracted := 0
	ev, _ := NewEvaluator(MustCompile("a"),
		WithWindow(100, 10),
		WithEdgeFilter(func(tu Tuple) bool { return tu.Props["keep"] == "y" }),
		WithOnInvalidate(func(Match) { retracted++ }))
	ev.MustIngest(Tuple{TS: 1, Src: "u", Dst: "v", Label: "a", Props: map[string]string{"keep": "y"}})
	// The deletion carries no props; the filter must not block it.
	ev.MustIngest(Tuple{TS: 2, Src: "u", Dst: "v", Label: "a", Delete: true})
	if retracted != 1 {
		t.Fatalf("retracted = %d, want 1", retracted)
	}
}

// A filter-rejected tuple is still a tuple of the stream: it is held
// to the same order check as an accepted one and cannot move the
// stream clock backwards.
func TestEdgeFilterKeepsStreamOrder(t *testing.T) {
	ev, err := NewEvaluator(MustCompile("a/b"),
		WithWindow(100, 1),
		WithEdgeFilter(func(tu Tuple) bool { return tu.Props["ok"] != "no" }))
	if err != nil {
		t.Fatal(err)
	}
	no := map[string]string{"ok": "no"}

	ev.MustIngest(Tuple{TS: 10, Src: "x", Dst: "y", Label: "a"})
	if _, err := ev.Ingest(Tuple{TS: 5, Src: "p", Dst: "q", Label: "a", Props: no}); err == nil {
		t.Fatal("rejected tuple at ts 5 after ts 10 was accepted")
	}
	// The clock is still at 10, so ts 7 is out of order too.
	if ms, err := ev.Ingest(Tuple{TS: 7, Src: "y", Dst: "z", Label: "b"}); err == nil {
		t.Fatalf("ts 7 after ts 10 was accepted: %v", ms)
	}
	ms := ev.MustIngest(Tuple{TS: 10, Src: "y", Dst: "z", Label: "b"})
	if len(ms) != 1 || ms[0] != (Match{From: "x", To: "z", TS: 10}) {
		t.Fatalf("matches = %v, want [{x z 10}]", ms)
	}
}

// With WithSlack a rejected tuple goes through the reorder buffer like
// any other: it is released in timestamp order, never ahead of
// buffered tuples, and it is late when it is behind the watermark.
func TestEdgeFilterRespectsSlack(t *testing.T) {
	newEv := func() *Evaluator {
		ev, err := NewEvaluator(MustCompile("a/b"),
			WithWindow(100, 1),
			WithSlack(5),
			WithEdgeFilter(func(tu Tuple) bool { return tu.Props["ok"] != "no" }))
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	no := map[string]string{"ok": "no"}

	ev := newEv()
	ev.MustIngest(Tuple{TS: 10, Src: "x", Dst: "y", Label: "a"})
	ev.MustIngest(Tuple{TS: 13, Src: "p", Dst: "q", Label: "a", Props: no})
	ev.MustIngest(Tuple{TS: 11, Src: "y", Dst: "z", Label: "b"})
	if ms := ev.Flush(); len(ms) != 1 || ms[0] != (Match{From: "x", To: "z", TS: 11}) {
		t.Fatalf("Flush = %v, want [{x z 11}]", ms)
	}

	// A rejected tuple far ahead moves the watermark as an accepted one
	// would (here to 45), which makes ts 11 late instead of letting it
	// reach the engine behind ts 50.
	ev = newEv()
	ev.MustIngest(Tuple{TS: 10, Src: "x", Dst: "y", Label: "a"})
	ev.MustIngest(Tuple{TS: 50, Src: "p", Dst: "q", Label: "a", Props: no})
	var late *stream.ErrLate
	if ms, err := ev.Ingest(Tuple{TS: 11, Src: "y", Dst: "z", Label: "b"}); !errors.As(err, &late) {
		t.Fatalf("ts 11 behind watermark 45: matches %v, err %v, want a late-tuple error", ms, err)
	}
	// And a rejected tuple behind the watermark is late itself.
	if _, err := ev.Ingest(Tuple{TS: 20, Src: "p", Dst: "q", Label: "a", Props: no}); !errors.As(err, &late) {
		t.Fatalf("rejected tuple at ts 20 behind watermark 45: err %v, want a late-tuple error", err)
	}
	if ms := ev.Flush(); len(ms) != 0 {
		t.Fatalf("Flush = %v, want no match", ms)
	}
}

// TestFlushKeepsStreamOrder: Flush hands the engine every buffered
// tuple, so a tuple older than one it released is late afterwards even
// when it is within slack of the maximum — it must not reach the engine
// behind its successor and come back stamped with the later timestamp.
func TestFlushKeepsStreamOrder(t *testing.T) {
	ev, err := NewEvaluator(MustCompile("a/b"), WithWindow(100, 1), WithSlack(5))
	if err != nil {
		t.Fatal(err)
	}
	ev.MustIngest(Tuple{TS: 100, Src: "x", Dst: "y", Label: "a"})
	if ms := ev.Flush(); len(ms) != 0 {
		t.Fatalf("Flush = %v, want no match", ms)
	}
	var late *stream.ErrLate
	if ms, err := ev.Ingest(Tuple{TS: 97, Src: "y", Dst: "z", Label: "b"}); !errors.As(err, &late) {
		t.Fatalf("ts 97 after flushing ts 100: matches %v, err %v, want a late-tuple error", ms, err)
	}
	ev.MustIngest(Tuple{TS: 101, Src: "y", Dst: "z", Label: "b"})
	if ms := ev.Flush(); len(ms) != 1 || ms[0] != (Match{From: "x", To: "z", TS: 101}) {
		t.Fatalf("Flush = %v, want [{x z 101}]", ms)
	}
}
