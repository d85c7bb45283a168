package automaton

import (
	"math/rand"
	"testing"

	"streamrpq/internal/pattern"
)

// bindAll binds the expression against one label space holding every
// label the fixtures use, so fingerprints of different patterns are
// comparable.
func bindAll(expr string) *Bound {
	ids := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	return Compile(pattern.MustParse(expr)).Bind(func(l string) int {
		if id, ok := ids[l]; ok {
			return id
		}
		return -1
	}, len(ids))
}

// equivalentPairs are syntactically distinct expressions denoting the
// same path language; their fingerprints must collide exactly.
var equivalentPairs = [][2]string{
	{"a/(b|c)", "(a/b)|(a/c)"},
	{"a|b", "b|a"},
	{"(a/b)|(a/b)", "a/b"},
	{"a/b*", "a|(a/b*)"}, // a·b* already contains a
	{"(a*)*", "a*"},
	{"a?/a*", "a*"},
	{"(a|b)*", "(a*|b*)*"},
	{"a/(b/c)", "(a/b)/c"},
	{"(a/b)+", "a/b/((a/b)*)"},
}

// inequivalentPairs must keep distinct fingerprints.
var inequivalentPairs = [][2]string{
	{"a", "b"},
	{"a/b", "b/a"},
	{"a*", "a+"},
	{"(a|b)+", "(a/b)+"},
	{"a/b*/c", "a/b/c*"},
}

func TestFingerprintEquivalence(t *testing.T) {
	for _, p := range equivalentPairs {
		f1, f2 := bindAll(p[0]).Fingerprint(), bindAll(p[1]).Fingerprint()
		if f1 != f2 {
			t.Errorf("equivalent %q vs %q: fingerprints differ:\n  %s\n  %s", p[0], p[1], f1, f2)
		}
	}
	for _, p := range inequivalentPairs {
		if f := bindAll(p[0]).Fingerprint(); f == bindAll(p[1]).Fingerprint() {
			t.Errorf("inequivalent %q vs %q: fingerprints collide: %s", p[0], p[1], f)
		}
	}
}

// rewriteEquivalent applies a random language-preserving rewrite to the
// expression's rendered form by re-parsing a transformed template.
// Each transform is an identity of regular languages.
func rewriteEquivalent(rng *rand.Rand, src string) string {
	switch rng.Intn(4) {
	case 0:
		return "(" + src + ")|(" + src + ")" // e|e = e
	case 1:
		return "(" + src + ")" // grouping
	case 2:
		return "()/(" + src + ")" // ε·e = e
	default:
		return "(" + src + ")/()" // e·ε = e
	}
}

// TestFingerprintRandomRewrites: applying chains of random
// language-preserving rewrites never changes the fingerprint, across
// all fixture expressions.
func TestFingerprintRandomRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, src := range exprFixtures {
		want := bindAll(src).Fingerprint()
		cur := src
		for i := 0; i < 6; i++ {
			cur = rewriteEquivalent(rng, cur)
			if got := bindAll(cur).Fingerprint(); got != want {
				t.Fatalf("%q rewritten to %q: fingerprint changed:\n  want %s\n  got  %s", src, cur, want, got)
			}
		}
	}
}

// TestBoundFingerprintWidthIndependent: re-binding against a wider
// label dictionary (new labels the automaton has no transitions on)
// must not change the fingerprint — the bound steps identically.
func TestBoundFingerprintWidthIndependent(t *testing.T) {
	d := Compile(pattern.MustParse("a/b*"))
	ids := map[string]int{"a": 0, "b": 1}
	lookup := func(l string) int {
		if id, ok := ids[l]; ok {
			return id
		}
		return -1
	}
	narrow := d.Bind(lookup, 2)
	wide := d.Bind(lookup, 5)
	if narrow.Fingerprint() != wide.Fingerprint() {
		t.Fatalf("fingerprint depends on label-space width:\n  %s\n  %s", narrow.Fingerprint(), wide.Fingerprint())
	}
}

// TestWithoutEmptyWord: a query whose start state is its only final
// state is rebound as L \ {ε} — a canonical automaton with the
// fingerprint of its R+ twin, over the label ids and label space of
// the original binding — and a query with a second final state is not.
func TestWithoutEmptyWord(t *testing.T) {
	twins := [][2]string{
		{"(a|b|c)*", "(a|b|c)+"},
		{"a*", "a+"},
		{"(a/b)*", "(a/b)+"},
		{"((a/b)*/c)*", "((a/b)*/c)+"},
		{"(a*/b)*", "(a*/b)+"},
	}
	for _, p := range twins {
		star, plus := bindAll(p[0]), bindAll(p[1])
		ne, ok := star.WithoutEmptyWord()
		if !ok {
			t.Fatalf("%q: not rebound", p[0])
		}
		if got, want := ne.Fingerprint(), plus.Fingerprint(); got != want {
			t.Errorf("%q without ε: fingerprint %s, %q has %s", p[0], got, p[1], want)
		}
		if _, ok := plus.WithoutEmptyWord(); ok {
			t.Errorf("%q rebound, but its start is not final", p[1])
		}
	}
	for _, expr := range []string{"a*/b*", "a?/b*", "a|b*", "a/b"} {
		if _, ok := bindAll(expr).WithoutEmptyWord(); ok {
			t.Errorf("%q rebound: its start is not its only final state", expr)
		}
	}

	// A sparse binding: the rebound automaton keeps the ids and the
	// width, and accepts exactly the non-empty words of L.
	ids := map[string]int{"a": 5, "b": 2}
	d := Compile(pattern.MustParse("(a/b|b)*"))
	b := d.Bind(func(l string) int { return ids[l] }, 8)
	ne, ok := b.WithoutEmptyWord()
	if !ok {
		t.Fatal("(a/b|b)* not rebound")
	}
	if len(ne.ByLabel) != 8 {
		t.Fatalf("label space %d, want 8", len(ne.ByLabel))
	}
	for id, trs := range ne.ByLabel {
		if len(trs) > 0 && id != 5 && id != 2 {
			t.Fatalf("transition on label id %d, outside the binding", id)
		}
	}
	accepts := func(word []string) bool {
		s := ne.Start
		for _, l := range word {
			if s = ne.Step(s, ids[l]); s == NoState {
				return false
			}
		}
		return ne.Final[s]
	}
	var words func(w []string, n int)
	words = func(w []string, n int) {
		if want := len(w) > 0 && d.Accepts(w); accepts(w) != want {
			t.Fatalf("word %v: accepted %v, want %v", w, !want, want)
		}
		if n == 0 {
			return
		}
		for _, l := range []string{"a", "b"} {
			words(append(w, l), n-1)
		}
	}
	words(nil, 7)
}
