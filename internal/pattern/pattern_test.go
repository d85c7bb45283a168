package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical rendering
	}{
		{"a", "a"},
		{"a*", "a*"},
		{"a/b", "a/b"},
		{"a b", "a/b"},
		{"a|b", "a|b"},
		{"a/b*", "a/b*"},
		{"(a/b)*", "(a/b)*"},
		{"a/b*/c*", "a/b*/c*"},
		{"(a|b|c)+", "(a|b|c)+"},
		{"a?/b*", "a?/b*"},
		{"a/b/c", "a/b/c"},
		{"a|b/c", "a|b/c"},
		{"(a|b)/c", "(a|b)/c"},
		{"a**", "a**"},
		{"()", "()"},
		{"(a)", "a"},
		{"((a))", "a"},
		{"knows/replyOf*", "knows/replyOf*"},
		{"a_1|a_2|a_3", "a_1|a_2|a_3"},
		{"  a   /  b  ", "a/b"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"*",
		"|a",
		"a|",
		"a/",
		"(a",
		"a)",
		"a||b",
		"+a",
		"a!",
		"(",
		")",
	}
	for _, in := range bad {
		if e, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, e)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("a/(b|")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Pos != 5 {
		t.Errorf("error position = %d, want 5", pe.Pos)
	}
	if !strings.Contains(pe.Error(), "a/(b|") {
		t.Errorf("error %q does not mention input", pe.Error())
	}
}

// TestParseLimits: an expression past MaxLen or nested past MaxDepth —
// by parentheses or by postfix operators — is a *ParseError with an
// offset, returned at once, and one at the limits parses.
func TestParseLimits(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	for _, tc := range []struct {
		name string
		in   string
		pos  int
	}{
		{"parentheses 100 000 deep", nest(100_000), MaxLen},
		{"a million stars", "a" + strings.Repeat("*", 1_000_000), MaxLen},
		{"parentheses past MaxDepth", nest(MaxDepth), MaxDepth},
		{"stars past MaxDepth", "a" + strings.Repeat("*", MaxDepth), MaxDepth},
		{"stars inside parentheses", strings.Repeat("(", MaxDepth/2) + "a" + strings.Repeat("+", MaxDepth/2) + strings.Repeat(")", MaxDepth/2), MaxDepth},
	} {
		start := time.Now()
		_, err := Parse(tc.in)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: Parse took %v", tc.name, d)
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%s: want *ParseError, got %T: %v", tc.name, err, err)
			continue
		}
		if pe.Pos != tc.pos {
			t.Errorf("%s: error offset %d, want %d", tc.name, pe.Pos, tc.pos)
		}
		if len(pe.Error()) > MaxLen+200 {
			t.Errorf("%s: error message is %d bytes long", tc.name, len(pe.Error()))
		}
	}
	for _, in := range []string{
		nest(MaxDepth - 1),
		"a" + strings.Repeat("?", MaxDepth-1),
		strings.Repeat("a/", MaxLen/2-1) + "a",
		strings.Repeat("(a*/b*)/", MaxDepth) + "c",
	} {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%.40q...) within the limits: %v", in, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// String() output must re-parse to a structurally equal tree.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, 4)
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s, err)
		}
		if !Equal(normalize(e), normalize(back)) {
			t.Fatalf("round trip mismatch: %q -> %q", s, back.String())
		}
	}
}

// normalize collapses single-child concats/alts that the builders
// already collapse, so structural comparison is meaningful.
func normalize(e *Expr) *Expr {
	subs := make([]*Expr, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = normalize(s)
	}
	switch e.Op {
	case OpConcat:
		return Concat(subs...)
	case OpAlt:
		return Alt(subs...)
	case OpStar:
		return Star(subs[0])
	case OpPlus:
		return Plus(subs[0])
	case OpOpt:
		return Opt(subs[0])
	}
	return e
}

func randomExpr(rng *rand.Rand, depth int) *Expr {
	labels := []string{"a", "b", "c", "d"}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(8) == 0 {
			return Empty()
		}
		return Label(labels[rng.Intn(len(labels))])
	}
	switch rng.Intn(5) {
	case 0:
		n := 2 + rng.Intn(2)
		subs := make([]*Expr, n)
		for i := range subs {
			subs[i] = randomExpr(rng, depth-1)
		}
		return Concat(subs...)
	case 1:
		n := 2 + rng.Intn(2)
		subs := make([]*Expr, n)
		for i := range subs {
			subs[i] = randomExpr(rng, depth-1)
		}
		return Alt(subs...)
	case 2:
		return Star(randomExpr(rng, depth-1))
	case 3:
		return Plus(randomExpr(rng, depth-1))
	default:
		return Opt(randomExpr(rng, depth-1))
	}
}

func TestAlphabet(t *testing.T) {
	e := MustParse("a/(b|c)*/a")
	got := e.Alphabet()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Alphabet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Alphabet = %v, want %v", got, want)
		}
	}
}

func TestSize(t *testing.T) {
	// |Q| counts labels plus * and + occurrences (§5.1.2).
	cases := []struct {
		in   string
		want int
	}{
		{"a", 1},
		{"a*", 2},
		{"a/b*", 3},
		{"(a|b|c)+", 4},
		{"a?/b", 2}, // '?' does not count
		{"a/b/c", 3},
		{"a*/b*/c*", 6},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Size(); got != c.want {
			t.Errorf("Size(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(MustParse("a/(b|c)*")); err != nil {
		t.Errorf("valid expr rejected: %v", err)
	}
	bad := []*Expr{
		nil,
		{Op: OpLabel}, // empty label
		{Op: OpConcat, Subs: []*Expr{Label("a")}}, // arity 1
		{Op: OpStar},                   // missing child
		{Op: OpLabel, Label: "sp ace"}, // invalid byte
		{Op: Op(99)},                   // unknown op
		{Op: OpStar, Subs: []*Expr{{Op: OpLabel}}}, // nested invalid
		{Op: OpEmpty, Subs: []*Expr{Label("a")}},   // ε with child
	}
	for i, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("case %d: invalid expr accepted", i)
		}
	}
}

func TestMatcherBasics(t *testing.T) {
	cases := []struct {
		expr string
		word []string
		want bool
	}{
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"a", nil, false},
		{"a*", nil, true},
		{"a*", []string{"a", "a", "a"}, true},
		{"a*", []string{"a", "b"}, false},
		{"a+", nil, false},
		{"a+", []string{"a"}, true},
		{"a?", nil, true},
		{"a?", []string{"a", "a"}, false},
		{"a/b", []string{"a", "b"}, true},
		{"a/b", []string{"b", "a"}, false},
		{"a|b", []string{"b"}, true},
		{"(a/b)+", []string{"a", "b", "a", "b"}, true},
		{"(a/b)+", []string{"a", "b", "a"}, false},
		{"a/b*/c", []string{"a", "c"}, true},
		{"a/b*/c", []string{"a", "b", "b", "c"}, true},
		{"()", nil, true},
		{"()", []string{"a"}, false},
		{"(a|b)*/c", []string{"b", "a", "c"}, true},
	}
	for _, c := range cases {
		if got := Matcher(MustParse(c.expr), c.word); got != c.want {
			t.Errorf("Matcher(%q, %v) = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

func TestRandomWordDeterministic(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		alpha := []string{"x", "y", "z"}
		a := RandomWord(alpha, int(n%16), seed)
		b := RandomWord(alpha, int(n%16), seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomWordEmptyAlphabet(t *testing.T) {
	if w := RandomWord(nil, 5, 1); w != nil {
		t.Errorf("RandomWord(nil alphabet) = %v, want nil", w)
	}
}
