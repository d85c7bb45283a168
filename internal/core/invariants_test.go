package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamrpq/internal/automaton"
	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// TestRAPQInvariantsRandom checks the Δ-index invariants after every
// tuple of random streams across query shapes, window configurations,
// deletion ratios and clock origins (a stream may start below zero).
// The refresh-heavy configurations put about two tuples per tick on four
// vertices, so most expansions refresh a node and Insert's refresh bound
// skips most of its edges: closure invariant 3 checks the skips.
func TestRAPQInvariantsRandom(t *testing.T) {
	configs := []struct {
		name     string
		expr     string
		size     int64
		slide    int64
		delRatio float64
		start    int64
		vertices int
		maxStep  int64
	}{
		{"a*", "a*", 20, 1, 0, 0, 9, 2},
		{"(a/b)+", "(a/b)+", 20, 1, 0.1, 0, 9, 2},
		{"a/b*/c", "a/b*/c", 15, 3, 0.05, 0, 9, 2},
		{"(a|b|c)+", "(a|b|c)+", 25, 5, 0.2, 0, 9, 2},
		{"a?/b*", "a?/b*", 10, 2, 0, 0, 9, 2},
		{"(a|b)+", "(a|b)+", 20, 4, 0.1, -5000, 9, 2},
		{"refresh/(a|b|c)+", "(a|b|c)+", 20, 1, 0.05, 0, 4, 1},
		{"refresh/(a/b)+", "(a/b)+", 30, 3, 0.05, 0, 4, 1},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2024))
			a := bind(t, cfg.expr, "a", "b", "c")
			e := NewRAPQ(a, window.Spec{Size: cfg.size, Slide: cfg.slide})
			tuples := randomTuples(rng, 400, cfg.vertices, 3, cfg.maxStep, cfg.delRatio)
			for i, tu := range tuples {
				tu.TS += cfg.start
				e.Process(tu)
				// Checking every step is O(n²) overall; every deletion is
				// checked, since each one runs a repair.
				if i%7 == 0 || tu.Op == stream.Delete {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("tuple %d (%v): %v", i, tu, err)
					}
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRSPQInvariantsRandom does the same for the simple-path engine.
func TestRSPQInvariantsRandom(t *testing.T) {
	configs := []struct {
		expr     string
		delRatio float64
	}{
		{"(a|b)*", 0},
		{"(a/b)+", 0.1},
		{"a/b*", 0.15},
		{"a/b*/a", 0},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.expr, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			a := bind(t, cfg.expr, "a", "b")
			e := NewRSPQ(a, window.Spec{Size: 18, Slide: 2})
			tuples := randomTuples(rng, 300, 7, 2, 2, cfg.delRatio)
			for i, tu := range tuples {
				e.Process(tu)
				if i%7 == 0 {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("tuple %d (%v): %v", i, tu, err)
					}
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRAPQQuickProperty drives the engine with quick-generated inputs:
// arbitrary short streams must never violate invariants or panic, and
// cumulative results must be monotone.
func TestRAPQQuickProperty(t *testing.T) {
	a := bindNoHelper("(a/b)+", "a", "b", "c")
	f := func(seed int64, sizeSel, slideSel uint8, raw []byte) bool {
		size := int64(sizeSel%40) + 5
		slide := int64(slideSel%10) + 1
		if slide > size {
			slide = size
		}
		sink := NewCollector()
		e := NewRAPQ(a, window.Spec{Size: size, Slide: slide}, WithSink(sink))
		ts := int64(0)
		lastCount := 0
		for i := 0; i+3 < len(raw); i += 4 {
			ts += int64(raw[i] % 4)
			tu := stream.Tuple{
				TS:    ts,
				Src:   stream.VertexID(raw[i+1] % 8),
				Dst:   stream.VertexID(raw[i+2] % 8),
				Label: stream.LabelID(raw[i+3] % 3),
			}
			if raw[i]%11 == 0 {
				tu.Op = stream.Delete
			}
			e.Process(tu)
			if len(sink.Matched) < lastCount {
				return false // append-only stream shrank
			}
			lastCount = len(sink.Matched)
		}
		return e.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// bindNoHelper mirrors bind for use inside quick properties where no
// testing.TB is available.
func bindNoHelper(expr string, labels ...string) *automaton.Bound {
	ids := map[string]int{}
	for i, l := range labels {
		ids[l] = i
	}
	return automaton.Compile(pattern.MustParse(expr)).Bind(func(s string) int {
		if id, ok := ids[s]; ok {
			return id
		}
		return -1
	}, len(labels))
}

// TestRSPQQuickProperty mirrors the RAPQ property for the simple-path
// engine at a smaller scale (the engine may do exponential work).
func TestRSPQQuickProperty(t *testing.T) {
	a := bindNoHelper("a/b*", "a", "b")
	f := func(raw []byte) bool {
		sink := NewCollector()
		e := NewRSPQ(a, window.Spec{Size: 15, Slide: 1}, WithSink(sink), WithMaxExtends(10000))
		ts := int64(0)
		for i := 0; i+3 < len(raw); i += 4 {
			ts += int64(raw[i] % 3)
			tu := stream.Tuple{
				TS:    ts,
				Src:   stream.VertexID(raw[i+1] % 6),
				Dst:   stream.VertexID(raw[i+2] % 6),
				Label: stream.LabelID(raw[i+3] % 2),
			}
			if raw[i]%13 == 0 {
				tu.Op = stream.Delete
			}
			e.Process(tu)
		}
		return e.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
