package automaton_test

import (
	"strings"
	"testing"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/pattern"
)

// matcherCheap reports whether pattern.Matcher answers fast on e for
// short words: its backtracking is exponential in the nesting of
// repetitions and in the length of a concatenation. Other expressions
// are checked against their Thompson NFA.
func matcherCheap(e *pattern.Expr) bool {
	reps := 0
	var walk func(*pattern.Expr)
	walk = func(x *pattern.Expr) {
		if x.Op == pattern.OpStar || x.Op == pattern.OpPlus {
			reps++
		}
		for _, sub := range x.Subs {
			walk(sub)
		}
	}
	walk(e)
	return e.Size() <= 32 && reps <= 2
}

// FuzzCompile: arbitrary pattern text, parsed and compiled under the
// engines' state bound, ends in a clean error — a parse error or the
// bound's refusal — or in a DFA whose acceptance agrees with the
// expression on random words over its alphabet and one foreign label.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		strings.Repeat("(", pattern.MaxDepth-1) + "a" + strings.Repeat(")", pattern.MaxDepth-1),
		strings.Repeat("(", pattern.MaxDepth+1) + "a" + strings.Repeat(")", pattern.MaxDepth+1),
		"a" + strings.Repeat("*", pattern.MaxDepth-1),
		"(a|b)" + strings.Repeat("+?", pattern.MaxDepth/2-1),
		"(a|b)*/a" + strings.Repeat("/(a|b)", 16), // a subset DFA of 2^17 + 1 states
		"knows/(likes|follows)*",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := pattern.Parse(src)
		if err != nil {
			return
		}
		d, err := automaton.CompileWithin(pattern.Simplify(e), core.MaxStates)
		if err != nil {
			if !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("CompileWithin(%q): unexpected error %v", src, err)
			}
			return
		}
		if d.NumStates() > core.MaxStates {
			t.Fatalf("CompileWithin(%q) returned %d states, over the bound", src, d.NumStates())
		}
		accepts := automaton.Thompson(e).Accepts
		if matcherCheap(e) {
			accepts = func(w []string) bool { return pattern.Matcher(e, w) }
		}
		alphabet := append(e.Alphabet(), "#")
		for seed := uint64(1); seed <= 32; seed++ {
			w := pattern.RandomWord(alphabet, int(seed%7), seed)
			if got, want := d.Accepts(w), accepts(w); got != want {
				t.Fatalf("%q on %q: DFA accepts = %v, expression = %v", src, w, got, want)
			}
		}
	})
}
