package pattern

import "sort"

// Simplify rewrites an expression into a smaller equivalent one. It is
// applied at query-registration time before automaton construction;
// the minimal DFA is identical either way (it is unique, and Minimize
// numbers it canonically), but a smaller expression makes
// Thompson/subset construction cheaper and keeps reported query sizes
// honest for machine-generated workloads.
//
// Rewrites (all language-preserving):
//
//	(R*)*   → R*        (R+)+ → R+        (R?)? → R?
//	(R*)+   → R*        (R+)* → R*        (R*)? → R*
//	(R?)*   → R*        (R?)+ → R*        (R+)? → R*
//	ε*      → ε         ε+ → ε            ε?   → ε
//	R ◦ ε   → R         ε ◦ R → R
//	R | R   → R         (duplicate alternation branches)
//	(R|ε)   → R?        (ε branch folds into optionality)
//	single-child Concat/Alt collapse
func Simplify(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	subs := make([]*Expr, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = Simplify(s)
	}
	switch e.Op {
	case OpEmpty, OpLabel:
		return e
	case OpConcat:
		return simplifyConcat(subs)
	case OpAlt:
		return simplifyAlt(subs)
	case OpStar, OpPlus, OpOpt:
		return simplifyClosure(e.Op, subs[0])
	}
	return e
}

func simplifyConcat(subs []*Expr) *Expr {
	// Drop ε factors; flatten nested concatenations.
	out := make([]*Expr, 0, len(subs))
	for _, s := range subs {
		if s.Op == OpEmpty {
			continue
		}
		if s.Op == OpConcat {
			out = append(out, s.Subs...)
		} else {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return Empty()
	case 1:
		return out[0]
	}
	return &Expr{Op: OpConcat, Subs: out}
}

func simplifyAlt(subs []*Expr) *Expr {
	// Flatten nested alternations, deduplicate branches, and fold an ε
	// branch into optionality of the rest.
	flat := make([]*Expr, 0, len(subs))
	for _, s := range subs {
		if s.Op == OpAlt {
			flat = append(flat, s.Subs...)
		} else {
			flat = append(flat, s)
		}
	}
	hasEmpty := false
	seen := map[string]bool{}
	out := make([]*Expr, 0, len(flat))
	for _, s := range flat {
		if s.Op == OpEmpty {
			hasEmpty = true
			continue
		}
		// Branches that already accept ε make an explicit ε branch
		// redundant, but we keep them as-is; dedup is purely syntactic.
		key := s.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	var alt *Expr
	switch len(out) {
	case 0:
		return Empty()
	case 1:
		alt = out[0]
	default:
		alt = &Expr{Op: OpAlt, Subs: out}
	}
	if hasEmpty {
		return simplifyClosure(OpOpt, alt)
	}
	return alt
}

// simplifyClosure normalizes stacked closures over a child that is
// already simplified.
func simplifyClosure(op Op, child *Expr) *Expr {
	if child.Op == OpEmpty {
		return Empty() // ε*, ε+, ε? are all ε
	}
	switch child.Op {
	case OpStar:
		// (R*)* = (R*)+ = R*; (R*)? = R*
		return child
	case OpPlus:
		switch op {
		case OpStar, OpOpt:
			return Star(child.Subs[0]) // (R+)* = (R+)? = R*
		case OpPlus:
			return child // (R+)+ = R+
		}
	case OpOpt:
		switch op {
		case OpStar, OpPlus:
			return Star(child.Subs[0]) // (R?)* = (R?)+ = R*
		case OpOpt:
			return child // (R?)? = R?
		}
	}
	return &Expr{Op: op, Subs: []*Expr{child}}
}

// Nullable reports whether ε ∈ L(e).
func Nullable(e *Expr) bool {
	switch e.Op {
	case OpEmpty, OpStar, OpOpt:
		return true
	case OpLabel:
		return false
	case OpConcat:
		for _, s := range e.Subs {
			if !Nullable(s) {
				return false
			}
		}
		return true
	case OpAlt:
		for _, s := range e.Subs {
			if Nullable(s) {
				return true
			}
		}
		return false
	case OpPlus:
		return Nullable(e.Subs[0])
	}
	return false
}

// SortedClone returns a structural copy with alternation branches in
// a canonical (sorted) order. Language-preserving; useful for
// comparing machine-generated queries for syntactic equivalence.
func SortedClone(e *Expr) *Expr {
	subs := make([]*Expr, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = SortedClone(s)
	}
	out := &Expr{Op: e.Op, Label: e.Label, Subs: subs}
	if e.Op == OpAlt {
		sort.Slice(out.Subs, func(i, j int) bool {
			return out.Subs[i].String() < out.Subs[j].String()
		})
	}
	return out
}
