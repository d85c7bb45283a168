// Package automaton converts RPQ regular expressions into minimal
// deterministic finite automata and derives the suffix-language
// containment relation used by the simple-path (RSPQ) engine.
//
// The pipeline mirrors §2 of Pacaci et al. (SIGMOD 2020): Thompson's
// construction builds an NFA recognizing L(R) [Thompson 1968], subset
// construction determinizes it, and Moore's partition refinement
// [Moore 1956] minimizes the result. The containment relation is
// computed on demand (Bound.Containment): the arbitrary-path engine
// never reads it.
package automaton

import (
	"slices"

	"streamrpq/internal/pattern"
)

// nfaState is a state of a Thompson NFA. Thompson states have at most
// two ε successors and at most one labeled successor.
type nfaState struct {
	eps   []int  // ε-transitions
	label string // labeled transition, "" if none
	to    int    // target of the labeled transition
}

// NFA is a nondeterministic finite automaton with ε-transitions
// produced by Thompson's construction.
type NFA struct {
	states []nfaState
	start  int
	accept int // Thompson NFAs have a single accepting state
}

// NumStates returns the number of NFA states.
func (n *NFA) NumStates() int { return len(n.states) }

// Thompson builds an NFA recognizing L(e) using Thompson's
// construction. Every operator adds a constant number of states, so the
// NFA has O(|e|) states.
func Thompson(e *pattern.Expr) *NFA {
	n := &NFA{}
	s, a := n.build(e)
	n.start, n.accept = s, a
	return n
}

func (n *NFA) newState() int {
	n.states = append(n.states, nfaState{to: -1})
	return len(n.states) - 1
}

func (n *NFA) addEps(from, to int) {
	n.states[from].eps = append(n.states[from].eps, to)
}

// build returns the (start, accept) fragment for e.
func (n *NFA) build(e *pattern.Expr) (int, int) {
	switch e.Op {
	case pattern.OpEmpty:
		s := n.newState()
		a := n.newState()
		n.addEps(s, a)
		return s, a
	case pattern.OpLabel:
		s := n.newState()
		a := n.newState()
		n.states[s].label = e.Label
		n.states[s].to = a
		return s, a
	case pattern.OpConcat:
		s, a := n.build(e.Subs[0])
		for _, sub := range e.Subs[1:] {
			s2, a2 := n.build(sub)
			n.addEps(a, s2)
			a = a2
		}
		return s, a
	case pattern.OpAlt:
		s := n.newState()
		a := n.newState()
		for _, sub := range e.Subs {
			si, ai := n.build(sub)
			n.addEps(s, si)
			n.addEps(ai, a)
		}
		return s, a
	case pattern.OpStar:
		si, ai := n.build(e.Subs[0])
		s := n.newState()
		a := n.newState()
		n.addEps(s, si)
		n.addEps(s, a)
		n.addEps(ai, si)
		n.addEps(ai, a)
		return s, a
	case pattern.OpPlus:
		si, ai := n.build(e.Subs[0])
		s := n.newState()
		a := n.newState()
		n.addEps(s, si)
		n.addEps(ai, si)
		n.addEps(ai, a)
		return s, a
	case pattern.OpOpt:
		si, ai := n.build(e.Subs[0])
		s := n.newState()
		a := n.newState()
		n.addEps(s, si)
		n.addEps(s, a)
		n.addEps(ai, a)
		return s, a
	}
	// Unreachable for validated expressions; return a dead fragment.
	s := n.newState()
	a := n.newState()
	return s, a
}

// closure expands set to its ε-closure, returning a sorted,
// deduplicated slice.
func (n *NFA) closure(set []int) []int {
	return n.appendClosure(nil, make([]bool, len(n.states)), set)
}

// appendClosure appends the ε-closure of set, sorted and deduplicated,
// to dst. seen holds one flag per NFA state; it must be all false, and
// it is all false again on return.
func (n *NFA) appendClosure(dst []int, seen []bool, set []int) []int {
	base := len(dst)
	for _, s := range set {
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	// dst[base:] is its own work list: a state's ε-successors are
	// appended behind it.
	for i := base; i < len(dst); i++ {
		for _, t := range n.states[dst[i]].eps {
			if !seen[t] {
				seen[t] = true
				dst = append(dst, t)
			}
		}
	}
	for _, s := range dst[base:] {
		seen[s] = false
	}
	slices.Sort(dst[base:])
	return dst
}

// Accepts reports whether the NFA accepts the word. It simulates the
// NFA directly and is used as a test oracle.
func (n *NFA) Accepts(word []string) bool {
	cur := n.closure([]int{n.start})
	for _, l := range word {
		var next []int
		for _, s := range cur {
			if n.states[s].label == l {
				next = append(next, n.states[s].to)
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closure(next)
	}
	for _, s := range cur {
		if s == n.accept {
			return true
		}
	}
	return false
}
