package automaton

import (
	"math/rand"
	"testing"

	"streamrpq/internal/pattern"
)

// equivalentPairs are syntactically distinct expressions denoting the
// same path language; their canonical keys must collide exactly.
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

// inequivalentPairs must keep distinct keys.
var inequivalentPairs = [][2]string{
	{"a", "b"},
	{"a/b", "b/a"},
	{"a*", "a+"},
	{"(a|b)+", "(a/b)+"},
	{"a/b*/c", "a/b/c*"},
}

func TestCanonicalKeyEquivalence(t *testing.T) {
	for _, p := range equivalentPairs {
		d1 := Compile(pattern.MustParse(p[0]))
		d2 := Compile(pattern.MustParse(p[1]))
		if d1.CanonicalKey() != d2.CanonicalKey() {
			t.Errorf("equivalent %q vs %q: keys differ:\n  %s\n  %s", p[0], p[1], d1.CanonicalKey(), d2.CanonicalKey())
		}
		if d1.CanonicalHash() != d2.CanonicalHash() {
			t.Errorf("equivalent %q vs %q: hashes differ", p[0], p[1])
		}
	}
	for _, p := range inequivalentPairs {
		d1 := Compile(pattern.MustParse(p[0]))
		d2 := Compile(pattern.MustParse(p[1]))
		if d1.CanonicalKey() == d2.CanonicalKey() {
			t.Errorf("inequivalent %q vs %q: keys collide: %s", p[0], p[1], d1.CanonicalKey())
		}
	}
}

// rewrite applies a random language-preserving rewrite to the
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

// TestCanonicalKeyRandomRewrites: applying chains of random
// language-preserving rewrites never changes the canonical key, across
// all fixture expressions.
func TestCanonicalKeyRandomRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, src := range exprFixtures {
		want := Compile(pattern.MustParse(src)).CanonicalKey()
		cur := src
		for i := 0; i < 6; i++ {
			cur = rewriteEquivalent(rng, cur)
			got := Compile(pattern.MustParse(cur)).CanonicalKey()
			if got != want {
				t.Fatalf("%q rewritten to %q: key changed:\n  want %s\n  got  %s", src, cur, want, got)
			}
		}
	}
}

// TestCanonicalKeyHandBuiltDFA: canonicalization must normalize state
// numbering and drop unreachable states, so hand-built DFAs with
// permuted state ids still compare equal.
func TestCanonicalKeyHandBuiltDFA(t *testing.T) {
	// a/b with states (0:start, 1:mid, 2:final).
	d1 := &DFA{
		Alphabet: []string{"a", "b"},
		Start:    0,
		Final:    []bool{false, false, true},
		Trans:    []map[string]int{{"a": 1}, {"b": 2}, {}},
	}
	// Same machine with permuted ids plus an unreachable state.
	d2 := &DFA{
		Alphabet: []string{"a", "b"},
		Start:    2,
		Final:    []bool{true, false, false, false},
		Trans:    []map[string]int{{}, {"b": 0}, {"a": 1}, {"a": 3}},
	}
	if d1.CanonicalKey() != d2.CanonicalKey() {
		t.Fatalf("permuted DFAs: keys differ:\n  %s\n  %s", d1.CanonicalKey(), d2.CanonicalKey())
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
