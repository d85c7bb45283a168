package streamrpq

import (
	"fmt"
	"math"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/stream"
)

// frontEnd is the facade's one tuple boundary (§2 of the paper: one
// timestamp-ordered stream, dictionary-encoded at the edge). Evaluator
// and MultiEvaluator both hold one: it owns the vertex and label
// dictionaries, binds queries against the label space, checks stream
// order, encodes tuples on the way in and decodes matches on the way
// out.
type frontEnd struct {
	vertices *stream.Dict
	labels   *stream.Dict
	reorder  *stream.Reorder  // nil unless WithSlack was given
	filter   func(Tuple) bool // nil unless WithEdgeFilter was given
	clock    clock            // the last tuple admitted
}

// clock is a position in the stream: the timestamp of the last tuple
// admitted, if any.
type clock struct {
	last    int64
	started bool
}

func newFrontEnd(slack int64, filter func(Tuple) bool) frontEnd {
	f := frontEnd{vertices: stream.NewDict(), labels: stream.NewDict(), filter: filter}
	if slack > 0 {
		f.reorder = stream.NewReorder(slack)
	}
	return f
}

// intern adds the queries' alphabets to the label space. Interning
// them before the stream does keeps every alphabet label's id below
// the ids of labels no query mentions, which the engines drop.
func (f *frontEnd) intern(qs ...*Query) {
	for _, q := range qs {
		for _, l := range q.Alphabet() {
			f.labels.ID(l)
		}
	}
}

// bind interns the query's alphabet and binds its automaton against
// the whole current label space.
func (f *frontEnd) bind(q *Query) *automaton.Bound {
	f.intern(q)
	return q.dfa.Bind(func(s string) int {
		id, ok := f.labels.Lookup(s)
		if !ok {
			return -1
		}
		return id
	}, f.labels.Len())
}

// admit is the one order check. It checks that the tuples may follow a
// stream standing at clock c — in non-decreasing timestamp order, or,
// with a reorder buffer, ahead of its watermark — and returns the clock
// after them. It changes nothing, so a rejected batch is rejected whole
// and before any of its names is interned. Timestamp math.MinInt64 is
// reserved: the engines mark tree nodes cut off by a deletion with it.
func (f *frontEnd) admit(c clock, tuples ...Tuple) (clock, error) {
	for _, t := range tuples {
		if t.TS == math.MinInt64 {
			return c, fmt.Errorf("timestamp %d is reserved", t.TS)
		}
		if c.started {
			if f.reorder != nil {
				if wm := f.reorder.Watermark(); t.TS <= wm {
					return c, &stream.ErrLate{Tuple: stream.Tuple{TS: t.TS}, Watermark: wm}
				}
			} else if t.TS < c.last {
				return c, fmt.Errorf("out-of-order tuple: ts %d after %d", t.TS, c.last)
			}
		}
		c = clock{last: t.TS, started: true}
	}
	return c, nil
}

// encode dictionary-encodes an admitted tuple. A tuple the edge filter
// rejects still advances the stream clock (window expiry must not
// stall), so it keeps its place in the stream as a clock-only tuple:
// nothing is interned, and the out-of-alphabet label makes the engine
// treat it as irrelevant. Deletions bypass the filter.
func (f *frontEnd) encode(t Tuple) stream.Tuple {
	if f.filter != nil && !t.Delete && !f.filter(t) {
		return stream.Tuple{TS: t.TS, Label: -1}
	}
	op := stream.Insert
	if t.Delete {
		op = stream.Delete
	}
	return stream.Tuple{
		TS:    t.TS,
		Src:   stream.VertexID(f.vertices.ID(t.Src)),
		Dst:   stream.VertexID(f.vertices.ID(t.Dst)),
		Label: stream.LabelID(f.labels.ID(t.Label)),
		Op:    op,
	}
}

// decode translates an engine match back to vertex names.
func (f *frontEnd) decode(m core.Match) Match {
	return Match{
		From: f.vertices.Name(int(m.From)),
		To:   f.vertices.Name(int(m.To)),
		TS:   m.TS,
	}
}
