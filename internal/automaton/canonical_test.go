package automaton

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"streamrpq/internal/datasets"
	"streamrpq/internal/pattern"
)

// canonicalCorpusHash is FNV-64a over Compile(e).String() for every
// expression of the pinned corpus, in order, each rendering followed by
// a newline. It was recorded with an independent (Hopcroft) minimizer;
// the minimal DFA is unique and Minimize numbers it by BFS, so any
// correct minimizer reproduces the value. Never re-record it to make a
// change to the pipeline pass.
const canonicalCorpusHash = 0x6922c7f33a55bc7c

// TestCanonicalAutomataPinned pins the minimal automata of a corpus:
// the fixtures (Table 2's templates among them), a seeded corpus of
// random expressions over one to four labels, each raw and after
// pattern.Simplify, and the gMark queries of seeds 1–5.
func TestCanonicalAutomataPinned(t *testing.T) {
	h := fnv.New64a()
	n := 0
	add := func(e *pattern.Expr) {
		fmt.Fprintln(h, Compile(e).String())
		n++
	}
	for _, src := range exprFixtures {
		add(pattern.MustParse(src))
	}
	rng := rand.New(rand.NewSource(45))
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 3000; i++ {
		e := randomExpr(rng, 1+i%6, labels[:1+i%4])
		add(e)
		add(pattern.Simplify(e))
	}
	gm := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	for seed := int64(1); seed <= 5; seed++ {
		for _, q := range datasets.GMarkQueries(100, gm, 2, 20, seed) {
			add(q.Expr)
		}
	}
	if got := h.Sum64(); got != canonicalCorpusHash {
		t.Fatalf("%d automata hash to %#x, want %#x", n, got, canonicalCorpusHash)
	}
}
