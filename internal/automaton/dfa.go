package automaton

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"streamrpq/internal/pattern"
)

// DFA is a deterministic finite automaton over string edge labels.
// Transitions are partial: a missing entry means the word is rejected
// (equivalently, a transition to an implicit dead state). State 0 is
// not special; Start names the initial state.
type DFA struct {
	Alphabet []string         // sorted distinct labels
	Start    int              // initial state s0
	Final    []bool           // Final[s] reports s ∈ F
	Trans    []map[string]int // Trans[s][label] = t, partial
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Trans) }

// Step returns δ(s, label) and whether the transition exists.
func (d *DFA) Step(s int, label string) (int, bool) {
	t, ok := d.Trans[s][label]
	return t, ok
}

// Accepts reports whether the DFA accepts the word.
func (d *DFA) Accepts(word []string) bool {
	s := d.Start
	for _, l := range word {
		t, ok := d.Trans[s][l]
		if !ok {
			return false
		}
		s = t
	}
	return d.Final[s]
}

// Determinize converts the NFA into an equivalent DFA via subset
// construction. Unreachable subsets are never materialized.
func Determinize(n *NFA) *DFA {
	d, _ := determinize(n, math.MaxInt)
	return d
}

// determinize is Determinize with a state bound: it stops, with an
// error, once it has built more than maxStates subsets.
func determinize(n *NFA, maxStates int) (*DFA, error) {
	alpha := map[string]struct{}{}
	for _, st := range n.states {
		if st.label != "" {
			alpha[st.label] = struct{}{}
		}
	}
	alphabet := make([]string, 0, len(alpha))
	for l := range alpha {
		alphabet = append(alphabet, l)
	}
	sort.Strings(alphabet)

	d := &DFA{Alphabet: alphabet}
	// A subset's key is its sorted state ids, packed as uvarints.
	idOf := map[string]int{}
	var key []byte
	var sets [][]int
	newState := func(set []int) int {
		key = key[:0]
		for _, s := range set {
			key = binary.AppendUvarint(key, uint64(s))
		}
		if id, ok := idOf[string(key)]; ok {
			return id
		}
		id := len(sets)
		idOf[string(key)] = id
		sets = append(sets, slices.Clone(set))
		d.Final = append(d.Final, slices.Contains(set, n.accept))
		d.Trans = append(d.Trans, map[string]int{})
		return id
	}

	type edge struct {
		label string
		to    int
	}
	var edges []edge
	var targets, next []int
	seen := make([]bool, len(n.states))
	start := newState(n.appendClosure(nil, seen, []int{n.start}))
	d.Start = start
	for work := []int{start}; len(work) > 0; {
		id := work[0]
		work = work[1:]
		// The subset's labelled transitions, grouped by label in sorted
		// order: deterministic state numbering.
		edges = edges[:0]
		for _, s := range sets[id] {
			if l := n.states[s].label; l != "" {
				edges = append(edges, edge{l, n.states[s].to})
			}
		}
		slices.SortFunc(edges, func(a, b edge) int { return strings.Compare(a.label, b.label) })
		for lo, hi := 0, 0; lo < len(edges); lo = hi {
			targets = targets[:0]
			for hi = lo; hi < len(edges) && edges[hi].label == edges[lo].label; hi++ {
				targets = append(targets, edges[hi].to)
			}
			next = n.appendClosure(next[:0], seen, targets)
			before := len(sets)
			tid := newState(next)
			if tid == before { // newly discovered
				if len(sets) > maxStates {
					return nil, fmt.Errorf("automaton: subset construction exceeds %d states", maxStates)
				}
				work = append(work, tid)
			}
			d.Trans[id][edges[lo].label] = tid
		}
	}
	return d, nil
}

// Minimize returns the minimal DFA equivalent to d by Moore's partition
// refinement. States start in three classes (−1: reaches no final
// state, 0: other non-final, 1: final); each round gives a state the
// class of its signature — its class, then the class of its successor
// on every label of the sorted alphabet, −1 where the transition is
// missing — until the class count stops growing. The result is trimmed:
// class −1 (the implicit dead state) is dropped and transitions stay
// partial. States are numbered canonically by BFS from the start state
// over sorted labels, so equal languages produce identical automata.
func (d *DFA) Minimize() *DFA {
	n := d.NumStates()
	useful := d.usefulStates()
	class := make([]int, n)
	for s := range class {
		switch {
		case !useful[s]:
			class[s] = -1
		case d.Final[s]:
			class[s] = 1
		}
	}
	for count := -1; ; {
		ids := map[string]int{}
		next := make([]int, n)
		var sig []byte
		for s := range next {
			if class[s] < 0 {
				next[s] = -1
				continue
			}
			sig = binary.AppendVarint(sig[:0], int64(class[s]))
			for _, a := range d.Alphabet {
				c := -1
				if t, ok := d.Trans[s][a]; ok {
					c = class[t]
				}
				sig = binary.AppendVarint(sig, int64(c))
			}
			id, ok := ids[string(sig)]
			if !ok {
				id = len(ids)
				ids[string(sig)] = id
			}
			next[s] = id
		}
		class = next
		if len(ids) == count {
			break
		}
		count = len(ids)
	}

	out := &DFA{Alphabet: append([]string(nil), d.Alphabet...)}
	if class[d.Start] < 0 {
		// Empty language: single non-final start state, no transitions.
		out.Final, out.Trans = []bool{false}, []map[string]int{{}}
		return out
	}
	// Quotient: BFS from the start's class, one representative per class.
	id := map[int]int{class[d.Start]: 0}
	reps := []int{d.Start}
	for i := 0; i < len(reps); i++ {
		s := reps[i]
		row := map[string]int{}
		for _, a := range d.Alphabet {
			t, ok := d.Trans[s][a]
			if !ok || class[t] < 0 {
				continue
			}
			j, seen := id[class[t]]
			if !seen {
				j = len(reps)
				id[class[t]] = j
				reps = append(reps, t)
			}
			row[a] = j
		}
		out.Final = append(out.Final, d.Final[s])
		out.Trans = append(out.Trans, row)
	}
	return out
}

// Compile parses nothing: it runs the full pipeline expr → Thompson NFA
// → subset DFA → minimal DFA, as done at query-registration time in the
// paper.
func Compile(e *pattern.Expr) *DFA {
	return Determinize(Thompson(e)).Minimize()
}

// CompileWithin is Compile with a state bound for pattern text from
// outside: it refuses, with an error, an expression whose subset DFA
// has more than maxStates states, and stops building that DFA as soon
// as it does. The refusal is of the subset DFA, not only of the minimal
// one: an expression whose minimal DFA fits the bound is refused all
// the same when its subset DFA does not.
func CompileWithin(e *pattern.Expr, maxStates int) (*DFA, error) {
	d, err := determinize(Thompson(e), maxStates)
	if err != nil {
		return nil, err
	}
	return d.Minimize(), nil
}

// Containment computes the suffix-language containment matrix of the
// DFA (Definitions 14–15 in the paper): Cont[s][t] == true iff
// [s] ⊇ [t], i.e. every word that takes the automaton from t to a final
// state also takes it from s to a final state.
//
// [s] ⊉ [t] iff there exists a word w with δ*(t,w) ∈ F and δ*(s,w) ∉ F.
// We compute the set of such "witness" pairs by a backward fixpoint on
// the completed automaton: the base case is {(s,t) : t∈F, s∉F}, and
// (s,t) is a witness if some label a makes (δ(s,a), δ(t,a)) a witness.
func (d *DFA) Containment() [][]bool {
	n := d.NumStates()
	dead := n
	total := n + 1
	step := func(s int, a string) int {
		if s == dead {
			return dead
		}
		if t, ok := d.Trans[s][a]; ok {
			return t
		}
		return dead
	}
	final := func(s int) bool { return s != dead && d.Final[s] }

	witness := make([][]bool, total)
	for i := range witness {
		witness[i] = make([]bool, total)
	}
	for s := 0; s < total; s++ {
		for t := 0; t < total; t++ {
			if final(t) && !final(s) {
				witness[s][t] = true
			}
		}
	}
	// Backward closure over the pair graph: predecessors of a witness
	// pair under any common label are witnesses. We iterate forward to
	// a fixpoint; the pair space is k² and each pass is k²·|Σ|.
	for changed := true; changed; {
		changed = false
		for s := 0; s < total; s++ {
			for t := 0; t < total; t++ {
				if witness[s][t] {
					continue
				}
				for _, a := range d.Alphabet {
					if witness[step(s, a)][step(t, a)] {
						witness[s][t] = true
						changed = true
						break
					}
				}
			}
		}
	}

	cont := make([][]bool, n)
	for s := 0; s < n; s++ {
		cont[s] = make([]bool, n)
		for t := 0; t < n; t++ {
			cont[s][t] = !witness[s][t]
		}
	}
	return cont
}

// HasContainmentProperty reports whether the automaton has the suffix
// language containment property (Definition 15): for every transition
// s →a t on a path from the start state to a final state, [s] ⊇ [t].
// Queries whose minimal DFA has this property are conflict-free on
// every graph (restricted regular expressions such as a*, (a1+..+ak)*
// fall in this class).
func (d *DFA) HasContainmentProperty() bool {
	cont := d.Containment()
	useful := d.usefulStates()
	for s := 0; s < d.NumStates(); s++ {
		if !useful[s] {
			continue
		}
		for _, t := range d.Trans[s] {
			if !useful[t] {
				continue
			}
			if !cont[s][t] {
				return false
			}
		}
	}
	return true
}

// usefulStates reports, per state, whether it lies on some path from
// the start state to a final state. In a trimmed minimal DFA all states
// are useful, but programmatically built DFAs may not be trimmed.
func (d *DFA) usefulStates() []bool {
	n := d.NumStates()
	reach := make([]bool, n)
	var stack []int
	reach[d.Start] = true
	stack = append(stack, d.Start)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.Trans[s] {
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	// canReach[s]: s reaches a final state.
	rev := make([][]int, n)
	for s := 0; s < n; s++ {
		for _, t := range d.Trans[s] {
			rev[t] = append(rev[t], s)
		}
	}
	canReach := make([]bool, n)
	stack = stack[:0]
	for s := 0; s < n; s++ {
		if d.Final[s] {
			canReach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rev[t] {
			if !canReach[s] {
				canReach[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]bool, n)
	for s := 0; s < n; s++ {
		out[s] = reach[s] && canReach[s]
	}
	return out
}

// String renders the DFA in a compact human-readable form for
// debugging and golden tests.
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA{start=%d", d.Start)
	for s := 0; s < d.NumStates(); s++ {
		fmt.Fprintf(&b, "; %d", s)
		if d.Final[s] {
			b.WriteString("F")
		}
		labels := make([]string, 0, len(d.Trans[s]))
		for l := range d.Trans[s] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, " -%s->%d", l, d.Trans[s][l])
		}
	}
	b.WriteString("}")
	return b.String()
}
