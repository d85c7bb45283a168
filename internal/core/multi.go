package core

import (
	"fmt"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Multi is the reference multi-query coordinator: the smallest
// tuple-at-a-time statement of what internal/shard's Engine computes.
// It is not on any production path — the facade runs shard.Engine in
// every configuration — and exists, like the batch oracle in batch.go,
// to be compared against: the shard differentials use it as the
// tuple-at-a-time oracle and the benchmark harness replays it as the
// core layer. It therefore has a static query set only (no dynamic
// registration, no removal, no snapshot/restore, sharing always on).
//
// It evaluates several persistent RPQs over one streaming graph,
// sharing the snapshot graph and the window machinery across queries —
// the multi-query direction the paper lists as future work (§7).
//
// Sharing model: the window content G_{W,τ} is query-independent, so
// it is stored once. Registered queries subscribe to *groups*: queries
// whose bound automata are structurally identical — equal
// Bound.Fingerprint, i.e. equal path language over the same label ids —
// share ONE group, whose single Δ tree index is maintained once and
// whose emissions fan out to every subscriber's sink in registration
// order. Since the engine is deterministic, each subscriber observes
// byte-for-byte the stream a private engine would have produced, while
// the per-tuple work is proportional to the number of distinct automata,
// not the number of queries.
//
// Per tuple, dispatch consults a RelevanceIndex: only groups with a
// transition on the incoming label are touched.
type Multi struct {
	g       *graph.Graph
	win     *window.Manager
	sinks   []Sink        // per registered query, registration order
	groups  []*multiGroup // creation order
	rel     RelevanceIndex
	now     int64
	seen    int64
	dropped int64

	// Relevance-filter accounting: dispatches counts (tuple, group)
	// applications that passed the label filter, relevanceSkips counts
	// the pairs it avoided (for tuples that reached at least one group).
	dispatches     int64
	relevanceSkips int64

	// retain-all mode: the graph stores every label, not just the union
	// of the registered alphabets (what a coordinator with dynamic
	// registration does, so a later query can bootstrap from the window).
	retain bool
}

// multiGroup owns one shared Δ-index engine evaluated once per tuple
// for all subscribed queries. subs holds subscriber registration
// indices in ascending order (the fan-out order).
type multiGroup struct {
	eng  *RAPQ
	key  string // Bound.Fingerprint
	subs []int
}

// groupSink fans one engine emission out to every subscriber's sink,
// in registration order — the order a loop over private members would
// have delivered it.
type groupSink struct {
	m *Multi
	g *multiGroup
}

func (s *groupSink) OnMatch(mt Match) {
	for _, i := range s.g.subs {
		if sk := s.m.sinks[i]; sk != nil {
			sk.OnMatch(mt)
		}
	}
}

func (s *groupSink) OnInvalidate(mt Match) {
	for _, i := range s.g.subs {
		if sk := s.m.sinks[i]; sk != nil {
			sk.OnInvalidate(mt)
		}
	}
}

// NewMulti creates a multi-query evaluator with the shared window
// specification.
func NewMulti(spec window.Spec) (*Multi, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Multi{g: graph.New(), win: window.NewManager(spec)}, nil
}

// SetRetainAll switches the shared graph to retain-all mode: every
// tuple mutates the graph even when no registered query's alphabet
// contains its label. Must be set before the first tuple (the graph
// content must reflect the mode from stream start).
func (m *Multi) SetRetainAll(on bool) error {
	if m.seen > 0 {
		return fmt.Errorf("core: SetRetainAll after processing started")
	}
	m.retain = on
	return nil
}

// Add registers one query and returns its engine (for Stats probes);
// an equivalent already-registered query yields the same (shared)
// engine. All engines share the coordinator's snapshot graph. Queries must be added before the first tuple is processed. Of
// the options only WithSink applies: it names the query's own sink.
func (m *Multi) Add(a *automaton.Bound, opts ...Option) (*RAPQ, error) {
	if m.seen > 0 {
		return nil, fmt.Errorf("core: Multi.Add after processing started")
	}
	if err := m.checkLabelSpace(a); err != nil {
		return nil, err
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	idx := len(m.sinks)
	m.sinks = append(m.sinks, cfg.sink)
	key := a.Fingerprint()
	for _, g := range m.groups {
		if g.key == key {
			g.subs = append(g.subs, idx)
			return g.eng, nil
		}
	}
	g := &multiGroup{key: key, subs: []int{idx}}
	g.eng = NewRAPQ(a, m.win.Spec(), WithSink(&groupSink{m: m, g: g}))
	g.eng.AttachGraph(m.g)
	m.groups = append(m.groups, g)
	bounds := make([]*automaton.Bound, len(m.groups))
	for i, g := range m.groups {
		bounds[i] = g.eng.a
	}
	m.rel = BuildRelevanceIndex(bounds)
	return g.eng, nil
}

// checkLabelSpace enforces the dense-label-space discipline: the shared
// graph stores ids from one dictionary and each member indexes its
// transition tables by them, so every member of a static query set is
// bound against the identical space.
func (m *Multi) checkLabelSpace(a *automaton.Bound) error {
	for _, g := range m.groups {
		if len(a.ByLabel) != g.eng.LabelSpace() {
			return fmt.Errorf("core: label space mismatch: %d vs %d labels",
				len(a.ByLabel), g.eng.LabelSpace())
		}
	}
	return nil
}

// Len returns the number of registered queries.
func (m *Multi) Len() int { return len(m.sinks) }

// Graph exposes the shared snapshot graph.
func (m *Multi) Graph() *graph.Graph { return m.g }

// Process routes one tuple to every group whose alphabet contains its
// label (the groups are independent — they share only the read-only
// snapshot graph — so evaluation order cannot change any group's
// emissions). Graph and window maintenance happen exactly once
// regardless of the number of queries.
func (m *Multi) Process(t stream.Tuple) {
	m.seen++
	if t.TS > m.now {
		m.now = t.TS
	}
	if deadline, due := m.win.Observe(t.TS); due {
		m.g.Expire(deadline, nil)
		for _, g := range m.groups {
			g.eng.ApplyExpiry(deadline)
		}
	}
	order := m.rel.Groups(int(t.Label))
	if len(order) == 0 {
		m.dropped++
		if !m.retain {
			return
		}
	}
	del := t.Op == stream.Delete
	if del {
		if !m.g.Delete(t.Key()) {
			return
		}
	} else {
		m.g.Insert(t.Src, t.Dst, t.Label, t.TS)
	}
	if len(order) == 0 {
		return
	}
	m.dispatches += int64(len(order))
	m.relevanceSkips += int64(len(m.groups) - len(order))
	for _, gi := range order {
		if del {
			m.groups[gi].eng.ApplyDelete(t)
		} else {
			m.groups[gi].eng.ApplyInsert(t)
		}
	}
}

// Stats aggregates statistics. Index-maintenance counters (Trees,
// Nodes, InsertCalls, expiry costs) are counted once per group — that
// is the point of sharing — while delivery counters (Results,
// Invalidations) are per subscribed query: each group's engine counts
// are multiplied by its subscriber count, matching what private
// engines would have reported for a static query set. Edges/Vertices
// describe the shared graph.
func (m *Multi) Stats() Stats {
	var s Stats
	for _, g := range m.groups {
		ms := g.eng.Stats()
		n := int64(len(g.subs))
		s.Trees += ms.Trees
		s.Nodes += ms.Nodes
		s.Results += ms.Results * n
		s.Invalidations += ms.Invalidations * n
		s.InsertCalls += ms.InsertCalls
		s.ExpiryRuns += ms.ExpiryRuns
		s.ExpiryTime += ms.ExpiryTime
		if len(g.subs) > 1 {
			s.SharedGroups++
		}
	}
	s.Groups = len(m.groups)
	s.Dispatches = m.dispatches
	s.RelevanceSkips = m.relevanceSkips
	s.TuplesSeen = m.seen
	s.TuplesDropped = m.dropped
	s.Edges = m.g.NumEdges()
	s.Vertices = m.g.NumVertices()
	return s
}

var _ Engine = (*Multi)(nil)
