// Package baseline implements the comparison system of §5.6 of Pacaci
// et al. (SIGMOD 2020): persistent RPQ evaluation emulated on top of a
// static engine. The paper builds a middle layer over Virtuoso that
// inserts each arriving tuple into the store and re-evaluates the
// query over the window content from scratch; Rescan reproduces that
// strategy over the in-memory snapshot graph and the batch
// product-graph algorithm, which is exactly the work a static engine
// must redo per tuple because it cannot reuse previous computations.
package baseline

import (
	"math"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Rescan is the per-tuple re-evaluation baseline. It maintains the
// window content incrementally (that part is cheap either way) but
// recomputes the full result set with the batch algorithm on every
// relevant tuple, emitting newly discovered pairs to the sink.
type Rescan struct {
	a    *automaton.Bound
	g    *graph.Graph
	win  *window.Manager
	sink core.Sink

	now   int64
	seen  map[core.Pair]struct{} // cumulative result set (implicit windows)
	stats core.Stats
}

// NewRescan returns a Rescan baseline engine.
func NewRescan(a *automaton.Bound, spec window.Spec, opts ...Option) *Rescan {
	cfg := cfg{sink: discard{}}
	for _, o := range opts {
		o(&cfg)
	}
	return &Rescan{
		a:    a,
		g:    graph.New(),
		win:  window.NewManager(spec),
		sink: cfg.sink,
		now:  math.MinInt64,
		seen: make(map[core.Pair]struct{}),
	}
}

// Option configures the baseline.
type Option func(*cfg)

type cfg struct {
	sink core.Sink
}

// WithSink directs newly discovered results to s.
func WithSink(s core.Sink) Option { return func(c *cfg) { c.sink = s } }

type discard struct{}

func (discard) OnMatch(core.Match)      {}
func (discard) OnInvalidate(core.Match) {}

// Graph implements core.Engine.
func (r *Rescan) Graph() *graph.Graph { return r.g }

// Stats implements core.Engine.
func (r *Rescan) Stats() core.Stats {
	s := r.stats
	s.Edges = r.g.NumEdges()
	s.Vertices = r.g.NumVertices()
	return s
}

// Process implements core.Engine: update the window, then re-evaluate
// the query over the whole window content.
func (r *Rescan) Process(t stream.Tuple) {
	r.stats.TuplesSeen++
	if t.TS > r.now {
		r.now = t.TS
	}
	if deadline, due := r.win.Observe(t.TS); due {
		r.g.Expire(deadline, nil)
	}
	if !r.a.Relevant(int(t.Label)) {
		r.stats.TuplesDropped++
		return
	}
	if t.Op == stream.Delete {
		r.g.Delete(t.Key())
		return // implicit windows: previously reported results stand
	}
	r.g.Insert(t.Src, t.Dst, t.Label, t.TS)

	// Full batch re-evaluation over the window — the cost a static
	// engine pays for every tuple of a persistent query.
	snap := core.BatchWindowed(r.g, r.a, r.now, r.win.Spec().Size)
	for p := range snap {
		if _, ok := r.seen[p]; ok {
			continue
		}
		r.seen[p] = struct{}{}
		r.stats.Results++
		r.sink.OnMatch(core.Match{From: p.From, To: p.To, TS: r.now})
	}
}

var _ core.Engine = (*Rescan)(nil)
