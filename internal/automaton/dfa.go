package automaton

import (
	"fmt"
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
	key := func(set []int) string {
		var b strings.Builder
		for i, s := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		return b.String()
	}
	idOf := map[string]int{}
	var sets [][]int
	newState := func(set []int) int {
		k := key(set)
		if id, ok := idOf[k]; ok {
			return id
		}
		id := len(sets)
		idOf[k] = id
		sets = append(sets, set)
		final := false
		for _, s := range set {
			if s == n.accept {
				final = true
				break
			}
		}
		d.Final = append(d.Final, final)
		d.Trans = append(d.Trans, map[string]int{})
		return id
	}

	start := newState(n.closure([]int{n.start}))
	d.Start = start
	for work := []int{start}; len(work) > 0; {
		id := work[0]
		work = work[1:]
		set := sets[id]
		// Group successors by label.
		byLabel := map[string][]int{}
		for _, s := range set {
			if l := n.states[s].label; l != "" {
				byLabel[l] = append(byLabel[l], n.states[s].to)
			}
		}
		labels := make([]string, 0, len(byLabel))
		for l := range byLabel {
			labels = append(labels, l)
		}
		sort.Strings(labels) // deterministic state numbering
		for _, l := range labels {
			targets := byLabel[l]
			sort.Ints(targets)
			next := n.closure(dedupSorted(targets))
			before := len(sets)
			tid := newState(next)
			if tid == before { // newly discovered
				work = append(work, tid)
			}
			d.Trans[id][l] = tid
		}
	}
	return d
}

// Minimize returns the minimal DFA equivalent to d using Hopcroft's
// partition-refinement algorithm. The result is trimmed: the implicit
// dead state (if any) is removed again and transitions stay partial.
// States are renumbered canonically by BFS from the start state so that
// equal languages produce identical automata.
func (d *DFA) Minimize() *DFA {
	// Complete the automaton with an explicit dead state so Hopcroft
	// operates on a total transition function.
	n := d.NumStates()
	dead := n
	total := n + 1
	trans := make([][]int, total)
	labelIdx := make(map[string]int, len(d.Alphabet))
	for i, l := range d.Alphabet {
		labelIdx[l] = i
	}
	na := len(d.Alphabet)
	for s := 0; s < total; s++ {
		row := make([]int, na)
		for i := range row {
			row[i] = dead
		}
		trans[s] = row
	}
	for s := 0; s < n; s++ {
		for l, t := range d.Trans[s] {
			trans[s][labelIdx[l]] = t
		}
	}

	// Reverse transitions for Hopcroft.
	rev := make([][][]int, na) // rev[a][t] = states s with δ(s,a)=t
	for a := 0; a < na; a++ {
		rev[a] = make([][]int, total)
	}
	for s := 0; s < total; s++ {
		for a := 0; a < na; a++ {
			t := trans[s][a]
			rev[a][t] = append(rev[a][t], s)
		}
	}

	// Initial partition: final vs non-final.
	part := make([]int, total) // state -> block id
	var blocks [][]int
	var finals, others []int
	for s := 0; s < n; s++ {
		if d.Final[s] {
			finals = append(finals, s)
		} else {
			others = append(others, s)
		}
	}
	others = append(others, dead)
	if len(finals) > 0 {
		for _, s := range finals {
			part[s] = len(blocks)
		}
		blocks = append(blocks, finals)
	}
	if len(others) > 0 {
		for _, s := range others {
			part[s] = len(blocks)
		}
		blocks = append(blocks, others)
	}

	// Worklist of (block, label) splitters.
	type splitter struct{ block, label int }
	work := make([]splitter, 0, len(blocks)*na)
	inWork := map[splitter]bool{}
	push := func(b, a int) {
		sp := splitter{b, a}
		if !inWork[sp] {
			inWork[sp] = true
			work = append(work, sp)
		}
	}
	for b := range blocks {
		for a := 0; a < na; a++ {
			push(b, a)
		}
	}

	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		delete(inWork, sp)

		// X = states with a-transition into block sp.block.
		inX := map[int]bool{}
		for _, t := range blocks[sp.block] {
			for _, s := range rev[sp.label][t] {
				inX[s] = true
			}
		}
		if len(inX) == 0 {
			continue
		}
		// Split every block B into B∩X and B\X.
		affected := map[int]bool{}
		for s := range inX {
			affected[part[s]] = true
		}
		for b := range affected {
			var in, out []int
			for _, s := range blocks[b] {
				if inX[s] {
					in = append(in, s)
				} else {
					out = append(out, s)
				}
			}
			if len(in) == 0 || len(out) == 0 {
				continue
			}
			// Replace block b with the larger part, create new block
			// with the smaller part (Hopcroft's trick).
			small, large := in, out
			if len(small) > len(large) {
				small, large = large, small
			}
			blocks[b] = large
			nb := len(blocks)
			blocks = append(blocks, small)
			for _, s := range small {
				part[s] = nb
			}
			for a := 0; a < na; a++ {
				if inWork[splitter{b, a}] {
					push(nb, a)
				} else {
					// Push the smaller of the two blocks.
					if len(small) <= len(large) {
						push(nb, a)
					} else {
						push(b, a)
					}
				}
			}
		}
	}

	// Build the quotient automaton over blocks, skipping the dead block.
	deadBlock := part[dead]
	// Canonical renumbering: BFS from the start block over sorted labels.
	remap := map[int]int{}
	var order []int
	startBlock := part[d.Start]
	if startBlock != deadBlock {
		remap[startBlock] = 0
		order = append(order, startBlock)
	}
	for i := 0; i < len(order); i++ {
		b := order[i]
		repr := blocks[b][0]
		for a := 0; a < na; a++ {
			tb := part[trans[repr][a]]
			if tb == deadBlock {
				continue
			}
			if _, ok := remap[tb]; !ok {
				remap[tb] = len(order)
				order = append(order, tb)
			}
		}
	}

	out := &DFA{Alphabet: append([]string(nil), d.Alphabet...)}
	out.Final = make([]bool, len(order))
	out.Trans = make([]map[string]int, len(order))
	for i := range out.Trans {
		out.Trans[i] = map[string]int{}
	}
	for b, id := range remap {
		repr := blocks[b][0]
		out.Final[id] = repr != dead && d.Final[repr]
		for a := 0; a < na; a++ {
			tb := part[trans[repr][a]]
			if tb == deadBlock {
				continue
			}
			out.Trans[id][d.Alphabet[a]] = remap[tb]
		}
	}
	if startBlock == deadBlock {
		// Empty language: single non-final start state, no transitions.
		return &DFA{Alphabet: out.Alphabet, Start: 0, Final: []bool{false}, Trans: []map[string]int{{}}}
	}
	out.Start = remap[startBlock]
	return out
}

// Compile parses nothing: it runs the full pipeline expr → Thompson NFA
// → subset DFA → minimal DFA, as done at query-registration time in the
// paper.
func Compile(e *pattern.Expr) *DFA {
	return Determinize(Thompson(e)).Minimize()
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
