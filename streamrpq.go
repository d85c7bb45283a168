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
	"fmt"

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
// an NFA via Thompson's construction, determinized, and minimized with
// Hopcroft's algorithm.
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
func Compile(expr string) (*Query, error) {
	e, err := pattern.Parse(expr)
	if err != nil {
		return nil, err
	}
	e = pattern.Simplify(e) // language-preserving normalization
	return newQuery(expr, e, automaton.Compile(e))
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
	TS     int64             // application timestamp, non-decreasing across Ingest calls
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
	workers      int
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

// WithParallelism enables the intra-query tree parallelism of the
// paper's prototype (§5.1.1): per-tuple spanning-tree updates and
// window expiry fan out over a worker pool. workers ≤ 0 uses
// GOMAXPROCS. Only supported under Arbitrary semantics.
func WithParallelism(workers int) Option {
	return func(c *evalConfig) {
		c.workers = workers
		if c.workers <= 0 {
			c.workers = -1 // 0 means "off"; core resolves ≤ 0 to GOMAXPROCS
		}
	}
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
	vertices  *stream.Dict
	labels    *stream.Dict
	engine    core.Engine
	reorder   *stream.Reorder  // nil unless WithSlack was given
	filter    func(Tuple) bool // nil unless WithEdgeFilter was given

	batch   []Match // matches produced by the current Ingest call
	onInval func(Match)
	lastTS  int64
	started bool
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
		vertices:  stream.NewDict(),
		labels:    stream.NewDict(),
	}
	// Pre-intern the query alphabet so the bound automaton's dense
	// label space covers exactly ΣQ; stream labels outside it receive
	// larger ids and are dropped by the engines.
	for _, l := range q.Alphabet() {
		ev.labels.ID(l)
	}
	bound := q.dfa.Bind(func(s string) int {
		id, ok := ev.labels.Lookup(s)
		if !ok {
			return -1
		}
		return id
	}, ev.labels.Len())

	sink := core.FuncSink{
		Match: func(m core.Match) {
			ev.batch = append(ev.batch, Match{
				From: ev.vertices.Name(int(m.From)),
				To:   ev.vertices.Name(int(m.To)),
				TS:   m.TS,
			})
		},
		Invalidate: func(m core.Match) {
			if ev.onInval != nil {
				ev.onInval(Match{
					From: ev.vertices.Name(int(m.From)),
					To:   ev.vertices.Name(int(m.To)),
					TS:   m.TS,
				})
			}
		},
	}
	ev.onInval = cfg.onInvalidate

	switch cfg.semantics {
	case Arbitrary:
		if cfg.workers != 0 {
			ev.engine = core.NewParallelRAPQ(bound, spec, cfg.workers, core.WithSink(sink))
		} else {
			ev.engine = core.NewRAPQ(bound, spec, core.WithSink(sink))
		}
	case Simple:
		if cfg.workers != 0 {
			return nil, fmt.Errorf("streamrpq: WithParallelism is not supported under Simple semantics")
		}
		ev.engine = core.NewRSPQ(bound, spec, core.WithSink(sink), core.WithMaxExtends(cfg.maxExtends))
	default:
		return nil, fmt.Errorf("streamrpq: unknown semantics %d", int(cfg.semantics))
	}
	if cfg.slack > 0 {
		ev.reorder = stream.NewReorder(cfg.slack)
	}
	ev.filter = cfg.filter
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

// Ingest consumes one tuple and returns the result pairs it produced.
// Tuples must arrive in non-decreasing timestamp order unless the
// evaluator was built with WithSlack; out-of-order tuples beyond the
// tolerance are rejected with an error before touching engine state.
// The returned slice is reused by the next Ingest call.
func (ev *Evaluator) Ingest(t Tuple) ([]Match, error) {
	var encoded stream.Tuple
	if ev.filter != nil && !t.Delete && !ev.filter(t) {
		// A rejected tuple still advances the stream clock (window
		// expiry must not stall), so it keeps its place in the stream
		// as a clock-only tuple: no vertex is interned, and the
		// out-of-alphabet label makes the engine treat it as
		// irrelevant.
		encoded = stream.Tuple{TS: t.TS, Label: -1}
	} else {
		encoded = ev.encode(t)
	}
	if ev.reorder != nil {
		released, err := ev.reorder.Offer(encoded)
		if err != nil {
			return nil, err
		}
		ev.batch = ev.batch[:0]
		for _, rt := range released {
			ev.engine.Process(rt)
		}
		return ev.batch, nil
	}
	if ev.started && t.TS < ev.lastTS {
		return nil, fmt.Errorf("streamrpq: out-of-order tuple: ts %d after %d", t.TS, ev.lastTS)
	}
	ev.started = true
	ev.lastTS = t.TS
	ev.batch = ev.batch[:0]
	ev.engine.Process(encoded)
	return ev.batch, nil
}

// Flush drains the out-of-order buffer (WithSlack) at end-of-stream,
// returning any matches the buffered tuples produce; a tuple ingested
// afterwards must be newer than everything flushed. Without slack it is
// a no-op.
func (ev *Evaluator) Flush() []Match {
	ev.batch = ev.batch[:0]
	if ev.reorder == nil {
		return nil
	}
	for _, rt := range ev.reorder.Flush() {
		ev.engine.Process(rt)
	}
	return ev.batch
}

func (ev *Evaluator) encode(t Tuple) stream.Tuple {
	op := stream.Insert
	if t.Delete {
		op = stream.Delete
	}
	return stream.Tuple{
		TS:    t.TS,
		Src:   stream.VertexID(ev.vertices.ID(t.Src)),
		Dst:   stream.VertexID(ev.vertices.ID(t.Dst)),
		Label: stream.LabelID(ev.labels.ID(t.Label)),
		Op:    op,
	}
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
