package automaton

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NoState marks a missing transition in a Bound automaton.
const NoState = int32(-1)

// Transition is one DFA transition s --label--> t with the label left
// implicit (transitions are grouped per label in Bound.ByLabel).
type Transition struct {
	From int32
	To   int32
}

// Bound is a DFA whose transitions have been bound to a dense label-id
// space, giving O(1) lookups on the hot path of the streaming engines.
// Labels outside the query alphabet map to no transitions at all, which
// lets the engines drop irrelevant tuples immediately (the paper's
// "discard tuples whose label is not in ΣQ").
type Bound struct {
	K       int            // number of DFA states
	Start   int32          // initial state s0
	Final   []bool         // Final[s] reports s ∈ F
	Trans   [][]int32      // Trans[s][labelID] → next state, NoState if absent
	ByLabel [][]Transition // ByLabel[labelID] → all (s,t) with δ(s,label)=t

	dfa *DFA           // the automaton Bind bound, for Containment and WithoutEmptyWord
	ids map[string]int // the id Bind gave each transition label, <0 if dropped
}

// Bind converts the string-labeled DFA into a Bound automaton.
// labelID maps label strings to dense ids in [0, numLabels); labels of
// the DFA alphabet that the mapper does not know (returns <0) are
// unreachable in the bound graph and their transitions are dropped.
func (d *DFA) Bind(labelID func(string) int, numLabels int) *Bound {
	k := d.NumStates()
	b := &Bound{
		K:       k,
		Start:   int32(d.Start),
		Final:   append([]bool(nil), d.Final...),
		Trans:   make([][]int32, k),
		ByLabel: make([][]Transition, numLabels),
		dfa:     d,
		ids:     make(map[string]int, len(d.Alphabet)),
	}
	for s := 0; s < k; s++ {
		row := make([]int32, numLabels)
		for i := range row {
			row[i] = NoState
		}
		b.Trans[s] = row
	}
	for s := 0; s < k; s++ {
		for l, t := range d.Trans[s] {
			id, ok := b.ids[l]
			if !ok {
				id = labelID(l)
				b.ids[l] = id
			}
			if id < 0 || id >= numLabels {
				continue
			}
			b.Trans[s][id] = int32(t)
			b.ByLabel[id] = append(b.ByLabel[id], Transition{From: int32(s), To: int32(t)})
		}
	}
	return b
}

// WithoutEmptyWord returns the bound minimal DFA of L \ {ε} when b's
// start state is its only final state, and false otherwise: the form a
// multi-query coordinator evaluates such a query in (see
// core.GroupBinding). The start gets a fresh non-final copy with its
// out-transitions, which becomes the start, and the result is
// minimized, so it is canonical: (a|b)* yields the automaton of (a|b)+,
// with an equal Fingerprint. It is bound to the label ids and label
// space b was bound to.
func (b *Bound) WithoutEmptyWord() (*Bound, bool) {
	for s, f := range b.Final {
		if f != (int32(s) == b.Start) {
			return nil, false
		}
	}
	d := b.dfa
	split := &DFA{
		Alphabet: d.Alphabet,
		Start:    d.NumStates(),
		Final:    append(slices.Clone(d.Final), false),
		Trans:    append(slices.Clone(d.Trans), d.Trans[d.Start]),
	}
	return split.Minimize().Bind(func(l string) int {
		if id, ok := b.ids[l]; ok {
			return id
		}
		return -1
	}, len(b.ByLabel)), true
}

// Containment returns the suffix-language containment matrix of the
// bound DFA (Definitions 14–15): Containment()[s][t] == ([s] ⊇ [t]).
// Only the simple-path engine's conflict check (Algorithm RSPQ, §4) and
// the Mendelzon–Wood oracle read it, so Bind does not build it: the
// matrix costs k² memory and a fixpoint over k² state pairs, which an
// arbitrary-path query of a few thousand states would pay for nothing.
// Each call computes it afresh; callers keep the result.
func (b *Bound) Containment() [][]bool { return b.dfa.Containment() }

// Step returns δ(s, label) or NoState.
func (b *Bound) Step(s int32, label int) int32 {
	if label < 0 || label >= len(b.ByLabel) {
		return NoState
	}
	return b.Trans[s][label]
}

// Relevant reports whether any state has a transition on the label,
// i.e. whether a tuple carrying it can possibly affect results.
func (b *Bound) Relevant(label int) bool {
	return label >= 0 && label < len(b.ByLabel) && len(b.ByLabel[label]) > 0
}

// Fingerprint serializes the bound automaton's structure over the dense
// label-id space: state count, start, final set, and per label id the
// sorted transition pairs. Trailing label-space width does not enter
// the fingerprint — a bound automaton re-bound against a wider label
// dictionary has no transitions on the new ids, so it steps (and
// therefore emits) identically, and the two fingerprints match.
// Equal fingerprints ⇒ the engines driven by the two bounds produce
// byte-identical result streams on every input, which is the safety
// condition for evaluating them on one shared Δ-index tree set.
// Containment needs no place in it. It is a function of the DFA, and
// two bounds of equal structure over a dictionary that holds their
// alphabets (the facade interns a query's labels before it binds) bind
// the same minimal DFA. Only arbitrary-path queries share a group
// anyway, and they never read the matrix.
func (b *Bound) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "k%d;s%d;f", b.K, b.Start)
	for s, f := range b.Final {
		if f {
			fmt.Fprintf(&sb, "%d,", s)
		}
	}
	sb.WriteByte(';')
	for id, trs := range b.ByLabel {
		if len(trs) == 0 {
			continue
		}
		sorted := append([]Transition(nil), trs...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].From != sorted[j].From {
				return sorted[i].From < sorted[j].From
			}
			return sorted[i].To < sorted[j].To
		})
		fmt.Fprintf(&sb, "l%d:", id)
		for _, tr := range sorted {
			fmt.Fprintf(&sb, "%d>%d,", tr.From, tr.To)
		}
		sb.WriteByte(';')
	}
	return sb.String()
}
