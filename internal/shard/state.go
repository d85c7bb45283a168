package shard

import (
	"cmp"
	"fmt"
	"slices"

	"streamrpq/internal/core"
)

// addGroupStats folds one group's engine counters into an aggregate:
// index-maintenance counters (Trees, Nodes, InsertCalls, expiry costs)
// once per group — that is the point of sharing — and delivery counters
// (Results, Invalidations) once per subscribed query, less the (x, x)
// records the fan-out drops for a noSelf subscriber, matching what
// private engines would have reported for a static query set.
func addGroupStats(out *core.Stats, g *group) {
	ms, self := g.engine.Stats(), g.engine.SelfPairs()
	for _, sb := range g.subs {
		out.Results += ms.Results
		out.Invalidations += ms.Invalidations
		if sb.noSelf {
			out.Results -= self.Results
			out.Invalidations -= self.Invalidations
		}
	}
	out.Trees += ms.Trees
	out.Nodes += ms.Nodes
	out.InsertCalls += ms.InsertCalls
	out.ExpiryRuns += ms.ExpiryRuns
	out.ExpiryTime += ms.ExpiryTime
	out.Groups++
	if len(g.subs) > 1 {
		out.SharedGroups++
	}
}

// Stats aggregates group statistics; Edges/Vertices describe the
// shared graph. Call between batches only. Results and Invalidations
// add, for every live query, what its group has emitted since it formed,
// the bootstrap matches Add suppressed and the emissions from before the
// query joined included, and a removal takes the query's share out: they
// equal the records delivered only for a static query set.
func (s *Engine) Stats() core.Stats {
	var st core.Stats
	for _, g := range s.groups {
		addGroupStats(&st, g)
	}
	st.Dispatches, st.RelevanceSkips = s.dispatchCounts()
	st.TuplesSeen = s.seen
	st.TuplesDropped = s.dropped
	st.Edges = s.g.NumEdges()
	st.Vertices = s.g.NumVertices()
	return st
}

// dispatchCounts totals the relevance-filter counters: what a restored
// snapshot carried plus what every worker has counted since.
func (s *Engine) dispatchCounts() (dispatches, skips int64) {
	dispatches, skips = s.dispatchBase, s.skipBase
	for _, w := range s.workers {
		dispatches += w.dispatches
		skips += w.relevanceSkips
	}
	return dispatches, skips
}

// ShardStats returns, per shard, the aggregated statistics of the
// groups it owns — the load-balance view of the partitioning, including
// how many of the shard's per-tuple dispatches the relevance filter
// admitted vs skipped. Call between batches only.
func (s *Engine) ShardStats() []core.Stats {
	out := make([]core.Stats, len(s.workers))
	for i, w := range s.workers {
		for _, g := range w.groups {
			addGroupStats(&out[i], g)
		}
		out[i].Dispatches = w.dispatches
		out[i].RelevanceSkips = w.relevanceSkips
	}
	return out
}

// SnapshotState captures the engine's full state — shared graph, window
// clock, and every member's Δ index in registration order — for a
// checkpoint. It must be called between ProcessBatch calls: batch
// boundaries are the engine's only globally consistent points. The
// serialized graph is the flat edge set of the settled graph (see
// core.SnapshotEdges); the state is epoch-free, so a snapshot taken at
// any shard count can be restored at any other (queries re-partition
// round-robin on restore).
func (s *Engine) SnapshotState() *core.MultiState {
	st := &core.MultiState{
		Now:     s.now,
		Seen:    s.seen,
		Dropped: s.dropped,
		Win:     s.win.State(),
		Edges:   core.SnapshotEdges(s.g),
		Retain:  !s.partial,

		WithoutEmptyWord: true,
	}
	st.Dispatches, st.RelevanceSkips = s.dispatchCounts()
	// Groups ordered by lowest subscriber index: a canonical order that
	// restore can reproduce without knowing group creation history.
	ordered := slices.Clone(s.groups)
	slices.SortFunc(ordered, func(a, b *group) int { return cmp.Compare(a.subs[0].query, b.subs[0].query) })
	rank := make(map[*group]int, len(ordered))
	for gi, g := range ordered {
		rank[g] = gi
		st.Members = append(st.Members, g.engine.SnapshotState())
	}
	for _, mb := range s.members {
		if mb != nil {
			st.MemberGroup = append(st.MemberGroup, rank[mb.group])
		}
	}
	return st
}

// RestoreState rebuilds the engine from a checkpoint. All queries must
// already be registered (same number, same order as at snapshot time)
// and no batch processed yet. The restored graph is written in place at
// epoch 0. Every group registration formed takes the snapshot state of
// its lowest-ranked subscriber, restored into the engine Add returned
// for it, so the layout is the registered automata's at any shard
// count. A snapshot that split one class of equivalent queries over
// several groups (written with sharing switched off) restores collapsed
// into the class's one group: results are a pure function of the input
// stream, so the class's states answer alike. The query→group mapping
// comes from a file and is checked: it must cover exactly the live
// queries, name existing states, leave no state without a subscriber
// and never map inequivalent queries to one state. A snapshot with
// Retain unset (written by an older coordinator that dropped the labels
// no query read) closes registration: Add fails for the engine's
// lifetime, and its own snapshots carry Retain unset on.
//
// A snapshot with WithoutEmptyWord unset (format v4) numbers the state
// of a query whose start state is its only final state for that query's
// own automaton, not for the L \ {ε} form its group evaluates now (see
// core.GroupBinding). Such a state is never restored: its group takes
// the state of a subscriber whose binding is unchanged (the query's R+
// twin), and failing one is rebuilt from the restored window
// (core.RAPQ.RestoreFromGraph). Either way the noSelf subscribers'
// delivery counters continue from their own state's.
func (s *Engine) RestoreState(st *core.MultiState) error {
	if s.closed {
		return fmt.Errorf("shard: RestoreState on closed engine")
	}
	if s.started || s.seen != 0 {
		return fmt.Errorf("shard: RestoreState after processing started")
	}
	from, err := s.restorePlan(st)
	if err != nil {
		return err
	}
	if err := core.RestoreEdges(s.g, st.Edges); err != nil {
		return err
	}
	s.now = st.Now
	s.seen = st.Seen
	s.dropped = st.Dropped
	s.win.SetState(st.Win)
	s.partial = !st.Retain
	s.dispatchBase = st.Dispatches
	s.skipBase = st.RelevanceSkips
	for gi, g := range s.groups {
		var err error
		if src := from[g]; src.rebuild {
			err = g.engine.RestoreFromGraph(src.st, s.g)
		} else {
			err = g.engine.RestoreState(src.st)
		}
		g.w.park.Release()
		if err != nil {
			return fmt.Errorf("shard: restore group %d: %w", gi, err)
		}
	}
	return nil
}

// restoreSource is the snapshot state a group restores from: its trees
// and counters, or, with rebuild set, only its counters, the trees
// being rebuilt from the window.
type restoreSource struct {
	st      *core.RAPQState
	rebuild bool
}

// restorePlan pairs every registered group with the snapshot state its
// lowest-ranked subscriber maps to — in a v4 snapshot, its lowest-ranked
// subscriber whose binding is unchanged — after checking the snapshot's
// query→group mapping against the live queries in registration order.
func (s *Engine) restorePlan(st *core.MultiState) (map[*group]restoreSource, error) {
	var live []*member
	for _, mb := range s.members {
		if mb != nil {
			live = append(live, mb)
		}
	}
	if len(st.MemberGroup) != len(live) {
		return nil, fmt.Errorf("shard: restore: snapshot maps %d queries, coordinator has %d",
			len(st.MemberGroup), len(live))
	}
	first := make([]*member, len(st.Members)) // each state's lowest-ranked subscriber
	from := make(map[*group]restoreSource, len(s.groups))
	rebound := make(map[*group]*core.RAPQState) // v4: a noSelf subscriber's own state
	for rank, mb := range live {
		gi := st.MemberGroup[rank]
		if gi < 0 || gi >= len(st.Members) {
			return nil, fmt.Errorf("shard: restore: query %d maps to group %d of %d", mb.index, gi, len(st.Members))
		}
		if first[gi] == nil {
			first[gi] = mb
		} else if first[gi].group != mb.group {
			return nil, fmt.Errorf("shard: restore: group %d spans inequivalent queries %d and %d", gi, first[gi].index, mb.index)
		}
		if mb.noSelf && !st.WithoutEmptyWord {
			if rebound[mb.group] == nil {
				rebound[mb.group] = st.Members[gi]
			}
		} else if _, ok := from[mb.group]; !ok {
			from[mb.group] = restoreSource{st: st.Members[gi]}
		}
	}
	for gi, mb := range first {
		if mb == nil {
			return nil, fmt.Errorf("shard: restore: snapshot group %d has no subscribers", gi)
		}
	}
	for g, own := range rebound {
		twin, ok := from[g]
		if !ok {
			from[g] = restoreSource{st: own, rebuild: true}
			continue
		}
		// The twin's counters are the group's; a noSelf subscriber
		// reports them less SelfPairs, which must come to its own.
		c := *twin.st
		c.Self = core.SelfPairs{
			Results:       c.Stats.Results - own.Stats.Results,
			Invalidations: c.Stats.Invalidations - own.Stats.Invalidations,
		}
		from[g] = restoreSource{st: &c}
	}
	return from, nil
}
