// Package workload defines the real-world RPQ workload of the paper's
// evaluation: the 11 most common recursive query templates mined from
// Wikidata query logs (Table 2, from Bonifati, Martens and Timm, WWW
// 2019), instantiated with per-dataset label bindings (Table 3).
package workload

import (
	"fmt"

	"streamrpq/internal/automaton"
	"streamrpq/internal/datasets"
	"streamrpq/internal/pattern"
)

// Query is one instantiated workload query, compiled and bound to a
// dataset's dense label space.
type Query struct {
	Name  string // Q1..Q11
	Text  string // the concrete expression, e.g. "a2q/c2a*"
	Expr  *pattern.Expr
	Bound *automaton.Bound
}

// templates returns the Table 2 queries instantiated over the labels
// a, b, c, d (with k=3 for the variable-arity templates, as the paper
// sets for the SO graph).
func templates(a, b, c, d string) []struct{ name, expr string } {
	alt := fmt.Sprintf("%s|%s|%s", a, b, c)
	return []struct{ name, expr string }{
		{"Q1", fmt.Sprintf("%s*", a)},
		{"Q2", fmt.Sprintf("%s/%s*", a, b)},
		{"Q3", fmt.Sprintf("%s/%s*/%s*", a, b, c)},
		{"Q4", fmt.Sprintf("(%s)*", alt)},
		{"Q5", fmt.Sprintf("%s/%s*/%s", a, b, c)},
		{"Q6", fmt.Sprintf("%s*/%s*", a, b)},
		{"Q7", fmt.Sprintf("%s/%s/%s*", a, b, c)},
		{"Q8", fmt.Sprintf("%s?/%s*", a, b)},
		{"Q9", fmt.Sprintf("(%s)+", alt)},
		{"Q10", fmt.Sprintf("(%s)/%s*", alt, d)},
		{"Q11", fmt.Sprintf("%s/%s/%s", a, b, c)},
	}
}

// bindings maps dataset names to the four label variables (a, b, c, d)
// of the templates, following Table 3 (with the frequent Yago2s
// predicates for the RDF graph).
func bindings(name string) (a, b, c, d string, ok bool) {
	switch name {
	case "SO":
		return "a2q", "c2a", "c2q", "a2q", true
	case "LDBC":
		return "knows", "replyOf", "hasCreator", "likes", true
	case "Yago":
		return "happenedIn", "hasCapital", "participatedIn", "dealtWith", true
	case "gMark":
		return "p0", "p1", "p2", "p3", true
	}
	return "", "", "", "", false
}

// ldbcQueries lists the queries that are meaningful on the LDBC graph:
// its only recursive relations are knows and replyOf, so templates
// whose recursion ranges over other labels degenerate (Figure 4(b)
// reports Q1, Q2, Q3, Q5, Q6, Q7 and Q11).
var ldbcQueries = map[string]bool{
	"Q1": true, "Q2": true, "Q3": true, "Q5": true,
	"Q6": true, "Q7": true, "Q11": true,
}

// Names returns the workload query names applicable to the dataset, in
// Q1..Q11 order.
func Names(dataset string) []string {
	var out []string
	for _, t := range templates("a", "b", "c", "d") {
		if dataset == "LDBC" && !ldbcQueries[t.name] {
			continue
		}
		out = append(out, t.name)
	}
	return out
}

// Queries instantiates, compiles and binds the workload for a dataset.
func Queries(d *datasets.Dataset) ([]Query, error) {
	a, b, c, dd, ok := bindings(d.Name)
	if !ok {
		return nil, fmt.Errorf("workload: no label bindings for dataset %q", d.Name)
	}
	var out []Query
	for _, t := range templates(a, b, c, dd) {
		if d.Name == "LDBC" && !ldbcQueries[t.name] {
			continue
		}
		expr, err := pattern.Parse(t.expr)
		if err != nil {
			return nil, fmt.Errorf("workload: %s = %q: %w", t.name, t.expr, err)
		}
		dfa := automaton.Compile(expr)
		bound := dfa.Bind(d.LabelID, len(d.Labels))
		out = append(out, Query{Name: t.name, Text: t.expr, Expr: expr, Bound: bound})
	}
	return out, nil
}

// MustQueries is Queries panicking on error, for callers whose
// datasets are statically known.
func MustQueries(d *datasets.Dataset) []Query {
	qs, err := Queries(d)
	if err != nil {
		panic(err)
	}
	return qs
}

// ByName returns the named query from the instantiated workload.
func ByName(qs []Query, name string) (Query, bool) {
	for _, q := range qs {
		if q.Name == name {
			return q, true
		}
	}
	return Query{}, false
}
