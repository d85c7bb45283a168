// Package pattern implements the regular-expression dialect used by
// Regular Path Queries (RPQs).
//
// The grammar follows Definition 7 of Pacaci et al. (SIGMOD 2020):
//
//	R ::= ε | a | R ◦ R | R + R | R* | R+ | R?
//
// rendered in ASCII as
//
//	expr   := alt
//	alt    := concat ('|' concat)*          alternation (paper: +)
//	concat := unary (('/' | ε) unary)*      concatenation (paper: ◦)
//	unary  := atom ('*' | '+' | '?')*
//	atom   := label | '(' alt ')' | '()'    '()' denotes ε
//
// Labels are identifiers over [A-Za-z0-9_:.<>#-]. Both an explicit '/'
// and plain juxtaposition denote concatenation, so "a/b*" and "a b*"
// parse identically.
//
// Parse is safe on untrusted input: it rejects an expression longer
// than MaxLen (16 KiB) before scanning it, and one whose parentheses
// plus the postfix operators applied at each level nest deeper than
// MaxDepth (64), both with a *ParseError. Simplify, the automaton
// construction and String recurse over the tree, and the depth limit
// keeps it a few thousand levels high at most. The expressions of the
// paper's workloads are a few hundred bytes long and a handful of levels
// deep.
package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies the kind of a regular-expression AST node.
type Op int

// The operator kinds of an RPQ expression tree.
const (
	OpEmpty  Op = iota // ε, the empty string
	OpLabel            // a single edge label
	OpConcat           // R1 ◦ R2 ◦ ... ◦ Rn
	OpAlt              // R1 + R2 + ... + Rn (alternation)
	OpStar             // R*
	OpPlus             // R+ (one or more)
	OpOpt              // R? (zero or one)
)

func (o Op) String() string {
	switch o {
	case OpEmpty:
		return "Empty"
	case OpLabel:
		return "Label"
	case OpConcat:
		return "Concat"
	case OpAlt:
		return "Alt"
	case OpStar:
		return "Star"
	case OpPlus:
		return "Plus"
	case OpOpt:
		return "Opt"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Expr is a node of an RPQ regular-expression tree.
type Expr struct {
	Op    Op
	Label string  // valid when Op == OpLabel
	Subs  []*Expr // children: n>=2 for Concat/Alt, exactly 1 for Star/Plus/Opt
}

// Empty returns the ε expression.
func Empty() *Expr { return &Expr{Op: OpEmpty} }

// Label returns an expression matching the single edge label l.
func Label(l string) *Expr { return &Expr{Op: OpLabel, Label: l} }

// Concat returns the concatenation of the given expressions. With zero
// arguments it returns ε; with one it returns that expression.
func Concat(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Empty()
	case 1:
		return subs[0]
	}
	return &Expr{Op: OpConcat, Subs: flatten(OpConcat, subs)}
}

// Alt returns the alternation of the given expressions. With zero
// arguments it returns ε; with one it returns that expression.
func Alt(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Empty()
	case 1:
		return subs[0]
	}
	return &Expr{Op: OpAlt, Subs: flatten(OpAlt, subs)}
}

// Star returns e*.
func Star(e *Expr) *Expr { return &Expr{Op: OpStar, Subs: []*Expr{e}} }

// Plus returns e+ (one or more repetitions).
func Plus(e *Expr) *Expr { return &Expr{Op: OpPlus, Subs: []*Expr{e}} }

// Opt returns e? (zero or one occurrence).
func Opt(e *Expr) *Expr { return &Expr{Op: OpOpt, Subs: []*Expr{e}} }

func flatten(op Op, subs []*Expr) []*Expr {
	out := make([]*Expr, 0, len(subs))
	for _, s := range subs {
		if s.Op == op {
			out = append(out, s.Subs...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// Alphabet returns the sorted set of distinct labels mentioned in the
// expression.
func (e *Expr) Alphabet() []string {
	set := map[string]struct{}{}
	e.visit(func(n *Expr) {
		if n.Op == OpLabel {
			set[n.Label] = struct{}{}
		}
	})
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Size returns the query size |Q| as defined in §5.1.2 of the paper:
// the number of labels plus the number of occurrences of * and +.
func (e *Expr) Size() int {
	n := 0
	e.visit(func(x *Expr) {
		switch x.Op {
		case OpLabel, OpStar, OpPlus:
			n++
		}
	})
	return n
}

func (e *Expr) visit(f func(*Expr)) {
	f(e)
	for _, s := range e.Subs {
		s.visit(f)
	}
}

// String renders the expression in the ASCII dialect accepted by Parse.
func (e *Expr) String() string {
	var b strings.Builder
	e.render(&b, 0)
	return b.String()
}

// precedence levels: 0 alt, 1 concat, 2 unary/atom
func (e *Expr) prec() int {
	switch e.Op {
	case OpAlt:
		return 0
	case OpConcat:
		return 1
	default:
		return 2
	}
}

func (e *Expr) render(b *strings.Builder, min int) {
	paren := e.prec() < min
	if paren {
		b.WriteByte('(')
	}
	switch e.Op {
	case OpEmpty:
		b.WriteString("()")
	case OpLabel:
		b.WriteString(e.Label)
	case OpConcat:
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte('/')
			}
			s.render(b, 2)
		}
	case OpAlt:
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte('|')
			}
			s.render(b, 1)
		}
	case OpStar:
		e.Subs[0].render(b, 2)
		b.WriteByte('*')
	case OpPlus:
		e.Subs[0].render(b, 2)
		b.WriteByte('+')
	case OpOpt:
		e.Subs[0].render(b, 2)
		b.WriteByte('?')
	}
	if paren {
		b.WriteByte(')')
	}
}

// Equal reports structural equality of two expressions.
func Equal(a, b *Expr) bool {
	if a.Op != b.Op || a.Label != b.Label || len(a.Subs) != len(b.Subs) {
		return false
	}
	for i := range a.Subs {
		if !Equal(a.Subs[i], b.Subs[i]) {
			return false
		}
	}
	return true
}
