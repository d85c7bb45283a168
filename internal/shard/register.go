package shard

import (
	"fmt"
	"slices"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
)

// member is one registered query: the automaton its group evaluates
// (core.GroupBinding), its user sink, and the shared Δ-index group it
// subscribes to. Members whose group automata are equivalent (equal
// key) share one group.
type member struct {
	bound  *automaton.Bound
	sink   core.Sink // user sink; called by the coordinator post-merge
	index  int
	key    string // group key: the group automaton's Fingerprint
	noSelf bool   // the query drops its group's (x, x) records
	group  *group
}

// sub is one subscriber of a group: its registration index, and
// whether the fan-out drops the group's (x, x) records for it.
type sub struct {
	query  int
	noSelf bool
}

// group owns one member engine, evaluated once per tuple for all its
// subscribers. subs holds the subscribers in ascending registration
// order — the fan-out stamps one Result per subscriber, and the
// canonical merge restores per-query order afterwards. The group is
// pinned to one worker shard (chosen by its first subscriber's index).
type group struct {
	engine core.MemberEngine
	bound  *automaton.Bound
	key    string
	subs   []sub
	w      *worker
	// todo is the group's steps of the batch being applied, by position:
	// p<<1, plus 1 when the group applies the tuple (see worker.plan).
	todo []int32
}

// newMember appends a member slot (without a group yet) for a query
// bound as a.
func (s *Engine) newMember(a *automaton.Bound, sink core.Sink) *member {
	b, noSelf := core.GroupBinding(a)
	mb := &member{bound: b, sink: sink, index: len(s.members), key: b.Fingerprint(), noSelf: noSelf}
	s.members = append(s.members, mb)
	return mb
}

// joinGroup subscribes the member to the group with its key, if one
// exists. Returns nil when a new group is needed.
func (s *Engine) joinGroup(mb *member) *group {
	for _, g := range s.groups {
		if g.key == mb.key {
			g.subs = append(g.subs, sub{mb.index, mb.noSelf})
			mb.group = g
			return g
		}
	}
	return nil
}

// checkLabelSpace enforces the dense-label-space discipline: the space
// grows monotonically — a later member may be bound against a larger
// dictionary, never a smaller one, and older members bounds-check
// labels beyond their binding (the ΣQ guards in core).
func (s *Engine) checkLabelSpace(a *automaton.Bound) error {
	for _, mb := range s.members {
		if mb != nil && len(a.ByLabel) < len(mb.bound.ByLabel) {
			return fmt.Errorf("shard: label space shrank: %d vs existing %d labels (bind new queries against the full dictionary)",
				len(a.ByLabel), len(mb.bound.ByLabel))
		}
	}
	return nil
}

// newGroup builds the member's own group around engine e, on the shard
// its registration index selects, whose parking e's trees share.
func (s *Engine) newGroup(e core.MemberEngine, mb *member) *group {
	e.AttachGraph(s.g)
	w := s.workers[mb.index%len(s.workers)]
	e.SetParking(&w.park)
	g := &group{engine: e, bound: mb.bound, key: mb.key, subs: []sub{{mb.index, mb.noSelf}}, w: w}
	mb.group = g
	return g
}

// activate attaches a group to its shard: from the next step on its
// emissions are captured and it is dispatched to.
func (s *Engine) activate(g *group) {
	g.engine.SetSink(captureSink{g.w})
	s.groups = append(s.groups, g)
	g.w.groups = append(g.w.groups, g)
	g.w.rebuild()
}

// Add registers one RAPQ query and returns its group's engine (for
// Stats probes; RestoreState restores into it); sink may be nil.
// Registration indices (the ids results carry) count Add calls. Call
// between batches, before the first one or mid-stream: both register
// the same way. The group evaluates the query's core.GroupBinding: a
// query whose start state is its only final state binds as L \ {ε}, and
// its fan-out drops the group's (x, x) records, which the query never
// reports. A query whose group automaton is an active group's (equal
// automaton.Bound.Fingerprint) subscribes to its fan-out and gets the
// shared engine — the group's output depends only on the stream and its
// automaton, so its future emissions are exactly the suffix a query of
// its own would emit; no bootstrap. Otherwise the new group, on
// shard index mod NumShards(), has its Δ index bootstrapped from the
// window content in place, on the caller's goroutine (a no-op while the
// window is empty): between batches no batch is open and the shard
// goroutines are parked on their job channels, so the bootstrap reads
// the settled graph at epoch 0 and the group is active on return. From
// the next batch onward the member emits exactly what one registered
// before the first batch emits over the same suffix, even where its
// stream clock trails that member's because the newest relevant edge
// was deleted or has expired (see core.RAPQ.BootstrapFromGraph).
// Matches emitted during the bootstrap replay itself — the window's
// current live result set — are suppressed: a from-start engine emitted
// them earlier.
func (s *Engine) Add(a *automaton.Bound, sink core.Sink) (*core.RAPQ, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: Add on closed engine")
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.partial {
		return nil, fmt.Errorf("shard: Add after restoring a snapshot that keeps only its queries' labels (a new query would bootstrap from part of the window)")
	}
	if err := s.checkLabelSpace(a); err != nil {
		return nil, err
	}
	mb := s.newMember(a, sink)
	if g := s.joinGroup(mb); g != nil {
		return g.engine.(*core.RAPQ), nil
	}
	e := core.NewRAPQ(mb.bound, s.spec) // default discard sink while bootstrapping
	g := s.newGroup(e, mb)
	boot := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("shard: member %d bootstrap panic: %v", mb.index, r)
			}
		}()
		e.BootstrapFromGraph(s.g)
		return nil
	}
	s.err = boot()
	g.w.park.Release()
	if s.err != nil {
		s.members[mb.index] = nil // never activated
		return nil, s.err
	}
	s.activate(g)
	return e, nil
}

// AddRemoved registers an empty slot: it takes the next registration
// index, as Add does, for a query that is already removed. A caller
// rebuilding a coordinator from a registration list with removed slots
// registers each one this way, so its indices stay the coordinator's.
func (s *Engine) AddRemoved() { s.members = append(s.members, nil) }

// Remove detaches the query with the given registration index.
// Call between batches: the member receives no step of any later batch.
// Its slot becomes a nil tombstone so surviving queries keep their
// registration indices (the canonical merge order depends on them).
func (s *Engine) Remove(index int) error {
	if s.closed {
		return fmt.Errorf("shard: Remove on closed engine")
	}
	if s.err != nil {
		return s.err
	}
	if index < 0 || index >= len(s.members) || s.members[index] == nil {
		return fmt.Errorf("shard: Remove: no query with index %d", index)
	}
	mb := s.members[index]
	s.members[index] = nil
	// Safe between batches: the worker goroutine only touches its group
	// list while applying a job, and the next job send happens-after
	// this mutation.
	g := mb.group
	g.subs = slices.DeleteFunc(g.subs, func(sb sub) bool { return sb.query == index })
	if len(g.subs) == 0 {
		isG := func(c *group) bool { return c == g }
		s.groups = slices.DeleteFunc(s.groups, isG)
		g.w.groups = slices.DeleteFunc(g.w.groups, isG)
		g.w.rebuild()
	}
	return nil
}
