// Package streamrpq evaluates persistent Regular Path Queries (RPQs)
// over sliding windows of streaming graphs.
//
// It implements the incremental algorithms of Pacaci, Bonifati and
// Özsu, "Regular Path Query Evaluation on Streaming Graphs" (SIGMOD
// 2020), under both arbitrary and simple path semantics, for
// append-only streams and streams with explicit deletions.
//
// Quick start:
//
//	q, err := streamrpq.Compile("(follows/mentions)+")
//	ev, err := streamrpq.NewEvaluator(q,
//	        streamrpq.WithWindow(15, 1),
//	        streamrpq.WithSemantics(streamrpq.Arbitrary))
//	matches := ev.Ingest(streamrpq.Tuple{TS: 4, Src: "y", Dst: "u", Label: "mentions"})
//
// Ingest consumes one streaming graph tuple at a time (timestamps must
// be non-decreasing) and returns the result pairs newly discovered by
// that tuple. Under the implicit-window model the result stream is
// append-only: results are never retracted by window movement, only by
// explicit deletions (reported through WithOnInvalidate).
package streamrpq

import (
	"cmp"
	"fmt"
	"slices"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Semantics selects the path semantics of query evaluation (§1 of the
// paper).
type Semantics int

const (
	// Arbitrary path semantics: a path may traverse the same vertex
	// multiple times. Evaluation is polynomial (Algorithm RAPQ).
	Arbitrary Semantics = iota
	// Simple path semantics: a path must not repeat vertices.
	// Evaluation is NP-hard in general but efficient in the absence of
	// conflicts (Algorithm RSPQ).
	Simple
)

func (s Semantics) String() string {
	if s == Simple {
		return "simple"
	}
	return "arbitrary"
}

// Query is a compiled RPQ: the regular expression parsed, converted to
// an NFA via Thompson's construction, determinized, and minimized by
// Moore's partition refinement.
type Query struct {
	src  string
	expr *pattern.Expr
	dfa  *automaton.DFA
}

// Compile parses and compiles an RPQ regular expression.
//
// Syntax: labels are identifiers; '/' (or juxtaposition) concatenates,
// '|' alternates, postfix '*', '+', '?' have their usual meanings, and
// '()' denotes the empty word. Example: "knows/(likes|follows)*".
//
// A pattern is refused when its automaton has more states than the
// engines can index (core.MaxStates). The bound applies to the subset
// automaton that determinization builds, not only to the minimal one:
// subset construction stops as soon as it passes the bound.
func Compile(expr string) (*Query, error) {
	e, err := pattern.Parse(expr)
	if err != nil {
		return nil, err
	}
	e = pattern.Simplify(e) // language-preserving normalization
	dfa, err := automaton.CompileWithin(e, core.MaxStates)
	if err != nil {
		return nil, fmt.Errorf("streamrpq: pattern refused: %w", err)
	}
	return newQuery(expr, e, dfa)
}

// newQuery wraps a compiled automaton, refusing one with more states
// than the engines' node keys can tell apart (pattern text arrives from
// outside, and such a query would alias nodes and answer wrongly).
func newQuery(src string, e *pattern.Expr, dfa *automaton.DFA) (*Query, error) {
	if n := dfa.NumStates(); n > core.MaxStates {
		return nil, fmt.Errorf("streamrpq: pattern compiles to %d automaton states, more than the %d the engines can index",
			n, core.MaxStates)
	}
	return &Query{src: src, expr: e, dfa: dfa}, nil
}

// MustCompile is like Compile but panics on error.
func MustCompile(expr string) *Query {
	q, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the original expression text.
func (q *Query) String() string { return q.src }

// Alphabet returns the sorted edge labels the query mentions; tuples
// with other labels are dropped on ingest.
func (q *Query) Alphabet() []string { return q.expr.Alphabet() }

// NumStates returns the number of states k of the minimal DFA, the
// parameter in the complexity bounds of Table 1.
func (q *Query) NumStates() int { return q.dfa.NumStates() }

// Size returns the query size |Q| as defined in §5.1.2: the number of
// labels plus the number of '*' and '+' occurrences.
func (q *Query) Size() int { return q.expr.Size() }

// ConflictFreeEverywhere reports whether the query's automaton has the
// suffix-language containment property (Definition 15), which
// guarantees conflict-freedom — and hence polynomial evaluation under
// simple path semantics — on every graph.
func (q *Query) ConflictFreeEverywhere() bool { return q.dfa.HasContainmentProperty() }

// Tuple is one streaming graph edge event. Vertices and labels are
// strings; the evaluator dictionary-encodes them internally.
//
// Props carries optional edge attributes for the property-graph model
// (the paper's future-work direction §7(i)). The engines do not
// inspect them; install a WithEdgeFilter to evaluate attribute-based
// predicates at the ingestion boundary.
type Tuple struct {
	TS     int64             // application timestamp, non-decreasing across Ingest calls; any value but math.MinInt64
	Src    string            // source vertex
	Dst    string            // destination vertex
	Label  string            // edge label
	Delete bool              // true marks an explicit deletion (a negative tuple)
	Props  map[string]string // optional edge attributes
}

// Match is one result of the persistent query: From and To are
// connected by a path satisfying the query whose edges all fit in one
// window. TS is the discovery (or retraction) time.
type Match struct {
	From string
	To   string
	TS   int64
}

// Stats reports engine-internal sizes and counters; see core.Stats for
// field documentation.
type Stats = core.Stats

type evalConfig struct {
	size         int64
	slide        int64
	semantics    Semantics
	onInvalidate func(Match)
	maxExtends   int64
	slack        int64
	filter       func(Tuple) bool
}

// Option configures an Evaluator.
type Option func(*evalConfig)

// WithWindow sets the sliding window: size is |W| and slide is the
// expiry interval β, both in the stream's time units. The default is
// size 1000, slide 1 (eager expiry).
func WithWindow(size, slide int64) Option {
	return func(c *evalConfig) { c.size, c.slide = size, slide }
}

// WithSemantics selects arbitrary (default) or simple path semantics.
func WithSemantics(s Semantics) Option {
	return func(c *evalConfig) { c.semantics = s }
}

// WithOnInvalidate registers a callback for results retracted by
// explicit deletions. Window expiry never retracts results (implicit
// window model).
func WithOnInvalidate(f func(Match)) Option {
	return func(c *evalConfig) { c.onInvalidate = f }
}

// WithMaxExtends bounds the per-tuple work of the simple-path engine
// on conflict-heavy inputs (the NP-hard case); 0 means unlimited.
// Ignored under arbitrary semantics. A tuple whose Extend cascade
// reaches the bound is cut off there: the evaluator keeps running, but
// from then on it may miss results, and Evaluator.BudgetExceeded
// reports true for the rest of its life.
func WithMaxExtends(n int64) Option {
	return func(c *evalConfig) { c.maxExtends = n }
}

// WithEdgeFilter installs an attribute predicate evaluated before a
// tuple reaches the engine: tuples for which f returns false are
// ignored entirely (as if their label were outside the query
// alphabet). Deletions are exempt — an explicit deletion must reach
// the engine even if the filter would now reject the edge's
// attributes. This is predicate pushdown for the property-graph model
// of the paper's future work (§7(i)): path constraints stay in the
// RPQ, attribute constraints run here.
func WithEdgeFilter(f func(Tuple) bool) Option {
	return func(c *evalConfig) { c.filter = f }
}

// WithSlack tolerates out-of-order tuples up to slack time units: the
// evaluator buffers arrivals and processes them in timestamp order
// once the watermark (max timestamp seen minus slack) passes them.
// Tuples older than the watermark are rejected by Ingest. Call Flush
// at end-of-stream to drain the buffer.
func WithSlack(slack int64) Option {
	return func(c *evalConfig) { c.slack = slack }
}

// Evaluator is a persistent RPQ evaluator over a streaming graph.
// It is not safe for concurrent use.
type Evaluator struct {
	query     *Query
	semantics Semantics
	fe        frontEnd
	engine    core.Engine

	batch   []Match      // matches produced by the current Ingest call
	pending []core.Match // the matches of the tuple being processed
	onInval func(Match)
}

// NewEvaluator creates an evaluator for the compiled query.
func NewEvaluator(q *Query, opts ...Option) (*Evaluator, error) {
	cfg := evalConfig{size: 1000, slide: 1, semantics: Arbitrary}
	for _, o := range opts {
		o(&cfg)
	}
	spec := window.Spec{Size: cfg.size, Slide: cfg.slide}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	ev := &Evaluator{
		query:     q,
		semantics: cfg.semantics,
		fe:        newFrontEnd(cfg.slack, cfg.filter),
		onInval:   cfg.onInvalidate,
	}
	// The bound automaton's dense label space covers exactly ΣQ; stream
	// labels outside it receive larger ids and are dropped by the engines.
	bound := ev.fe.bind(q)
	sink := core.FuncSink{
		Match: func(m core.Match) { ev.pending = append(ev.pending, m) },
		Invalidate: func(m core.Match) {
			if ev.onInval != nil {
				ev.onInval(ev.fe.decode(m))
			}
		},
	}

	switch cfg.semantics {
	case Arbitrary:
		ev.engine = core.NewRAPQ(bound, spec, core.WithSink(sink))
	case Simple:
		ev.engine = core.NewRSPQ(bound, spec, core.WithSink(sink), core.WithMaxExtends(cfg.maxExtends))
	default:
		return nil, fmt.Errorf("streamrpq: unknown semantics %d", int(cfg.semantics))
	}
	return ev, nil
}

// BudgetExceeded reports whether a WithMaxExtends bound has cut off
// some tuple's work, so the result stream may be incomplete. Always
// false under Arbitrary semantics and without a bound.
func (ev *Evaluator) BudgetExceeded() bool {
	sp, ok := ev.engine.(*core.RSPQ)
	return ok && sp.BudgetExceeded()
}

// Query returns the compiled query this evaluator runs.
func (ev *Evaluator) Query() *Query { return ev.query }

// Semantics returns the evaluator's path semantics.
func (ev *Evaluator) Semantics() Semantics { return ev.semantics }

// Ingest consumes one tuple and returns the result pairs it produced,
// each released tuple's in (From, To) vertex-id order. Tuples must
// arrive in non-decreasing timestamp order unless the evaluator was
// built with WithSlack; out-of-order tuples beyond the tolerance are
// rejected with an error before touching engine state. The returned
// slice is reused by the next Ingest call.
func (ev *Evaluator) Ingest(t Tuple) ([]Match, error) {
	ms, err := ev.ingest(t)
	if err != nil {
		return nil, fmt.Errorf("streamrpq: %w", err)
	}
	return ms, nil
}

// ingest is Ingest without the package prefix on its errors, which
// Replay replaces with the line number.
func (ev *Evaluator) ingest(t Tuple) ([]Match, error) {
	c, err := ev.fe.admit(ev.fe.clock, t)
	if err != nil {
		return nil, err
	}
	ev.fe.clock = c
	encoded := ev.fe.encode(t)
	ev.batch = ev.batch[:0]
	if ev.fe.reorder == nil {
		ev.process(encoded)
		return ev.batch, nil
	}
	released, err := ev.fe.reorder.Offer(encoded)
	if err != nil {
		return nil, err
	}
	for _, rt := range released {
		ev.process(rt)
	}
	return ev.batch, nil
}

// process runs one encoded tuple through the engine and appends its
// matches to the batch in the order the multi-query coordinator gives
// one tuple's matches: by (From, To) id. The engine emits them in the
// order its insert cascade finds them, which depends on tree shape.
func (ev *Evaluator) process(t stream.Tuple) {
	ev.engine.Process(t)
	slices.SortFunc(ev.pending, func(a, b core.Match) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for _, m := range ev.pending {
		ev.batch = append(ev.batch, ev.fe.decode(m))
	}
	ev.pending = ev.pending[:0]
}

// Flush drains the out-of-order buffer (WithSlack) at end-of-stream,
// returning any matches the buffered tuples produce; a tuple ingested
// afterwards must be newer than everything flushed. Without slack it is
// a no-op.
func (ev *Evaluator) Flush() []Match {
	ev.batch = ev.batch[:0]
	if ev.fe.reorder == nil {
		return nil
	}
	for _, rt := range ev.fe.reorder.Flush() {
		ev.process(rt)
	}
	return ev.batch
}

// MustIngest is like Ingest but panics on out-of-order input; it keeps
// examples terse.
func (ev *Evaluator) MustIngest(t Tuple) []Match {
	ms, err := ev.Ingest(t)
	if err != nil {
		panic(err)
	}
	return ms
}

// Stats returns a snapshot of the engine's internal counters (tree
// index size, expiry cost, results emitted, ...).
func (ev *Evaluator) Stats() Stats { return ev.engine.Stats() }
