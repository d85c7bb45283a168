package shard

import (
	"cmp"
	"fmt"
	"slices"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
)

// step is one tuple's work in a batch, applied by every shard.
type step struct {
	tuple stream.Tuple
	index int // tuple index in the user batch, for attribution
	// epoch is the graph epoch the tuple's member work reads: the
	// sequential prefix up to and including the tuple. An expiry pass
	// reads epoch-1, the expired graph before the tuple's mutation.
	epoch    graph.Epoch
	deadline int64 // expiry deadline, when expire is set
	expire   bool  // run ApplyExpiry(deadline) before applying the tuple
	del      bool  // tuple is a deletion that removed a live edge
	skip     bool  // no member work (irrelevant label or no-op delete)
}

// reply is a shard's response to one batch's steps.
type reply struct {
	results []Result
	err     error
}

// worker owns the groups of one shard. Shard 0 applies every batch on
// the caller's goroutine and has no channels; every other shard applies
// it on its own goroutine, fed through in and answering on out. rel is
// the shard's per-label dispatch index over its own groups (positions
// into w.groups), rebuilt by the coordinator on membership changes
// between batches; dispatches / relevanceSkips count the (step, group)
// pairs it admitted and avoided. park lends tree arrays between the
// shard's groups, which all run on one goroutine; it is emptied at every
// batch boundary (apply, Add's bootstrap, RestoreState). A shard applies
// a batch group by group: em holds the emissions of every group for the
// whole batch, spans says whose, for which step and of which kind, and
// the ordering pass turns them into buf.
type worker struct {
	id     int
	groups []*group
	rel    core.RelevanceIndex
	in     chan []step
	out    chan reply
	park   core.Parking

	// buf is the buffer emissions go to: the shard's reply, which the
	// coordinator has merged before it sends the next batch — or, for the
	// only shard of a one-shard engine, the engine's result buffer itself.
	buf            []Result
	em             []core.Match // the batch's emissions, before fan-out (see captureSink)
	spans          []span
	fan            []fanOut // scratch of order
	dispatches     int64
	relevanceSkips int64
}

// rebuild recomputes the shard's relevance index. Coordinator-side,
// between batches only (the worker goroutine reads rel while applying).
func (w *worker) rebuild() {
	bounds := make([]*automaton.Bound, len(w.groups))
	for i, g := range w.groups {
		bounds[i] = g.bound
	}
	w.rel = core.BuildRelevanceIndex(bounds)
}

// captureSink collects the emissions of its worker's groups, once per
// emission, into the worker's one emission buffer; apply records which
// group and step each run of it belongs to, and the ordering pass fans
// them out when the batch is done.
type captureSink struct{ w *worker }

func (c captureSink) OnMatch(m core.Match) { c.w.em = append(c.w.em, m) }

func (c captureSink) OnInvalidate(m core.Match) { c.w.em = append(c.w.em, m) }

// span is one group's emissions for one step: em[lo:hi], all of one
// kind. ApplyInsert emits only matches, ApplyDelete only invalidations,
// and a window pass nothing.
type span struct {
	g      *group
	tuple  int // the step's tuple index
	lo, hi int
	inval  bool // the step was a deletion: em[lo:hi] are invalidations
}

// fanOut is one (subscriber, span) delivery of the tuple being ordered.
type fanOut struct {
	sub
	inval bool
	run   []core.Match
}

// order moves the batch's emissions into the worker's buffer in
// canonical order, fanned out to every subscriber — one Result per
// subscribed query, exactly what private engines would have appended,
// less the (x, x) records of a noSelf subscriber (core.GroupBinding).
// The spans are stable-sorted by step; per step each span is sorted
// once, whatever its group's subscriber count, and the subscribers are
// visited in registration order. A query takes one group's span per
// step, so the step's records need no sort of their own.
func (w *worker) order() {
	slices.SortStableFunc(w.spans, func(a, b span) int { return cmp.Compare(a.tuple, b.tuple) })
	for i := 0; i < len(w.spans); {
		tuple := w.spans[i].tuple
		w.fan = w.fan[:0]
		for ; i < len(w.spans) && w.spans[i].tuple == tuple; i++ {
			sp := w.spans[i]
			run := w.em[sp.lo:sp.hi]
			slices.SortFunc(run, compareMatches)
			for _, sb := range sp.g.subs {
				w.fan = append(w.fan, fanOut{sb, sp.inval, run})
			}
		}
		slices.SortFunc(w.fan, func(a, b fanOut) int { return cmp.Compare(a.query, b.query) })
		for _, f := range w.fan {
			for _, m := range f.run {
				if f.noSelf && m.From == m.To {
					continue // the query never reports (x, x)
				}
				w.buf = append(w.buf, Result{Tuple: tuple, Query: f.query, Match: m, Invalidated: f.inval})
			}
		}
	}
}

// relevantLabel reports whether any group has a transition on the
// label (the shards' dispatch indexes). Tuples outside every alphabet
// still write the graph, but get no member work.
func (s *Engine) relevantLabel(l stream.LabelID) bool {
	for _, w := range s.workers {
		if len(w.rel.Groups(int(l))) > 0 {
			return true
		}
	}
	return false
}

// start marks processing as begun and spawns the goroutines of shards
// 1…n−1 on first use.
func (s *Engine) start() {
	if s.started {
		return
	}
	s.started = true
	for _, w := range s.workers[1:] {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
}

// run is the shard goroutine: apply each batch to the shard's queries,
// then hand the tagged results back.
func (w *worker) run() {
	for steps := range w.in {
		w.out <- w.apply(steps)
	}
}

// apply processes one batch's steps into the shard's buffer in
// canonical order, and empties the shard's parking. It runs group by
// group: each group takes its whole step list — every expiry step, read
// at the epoch before the step's own, and the steps whose label it
// reads, each at its own epoch — before the next group starts, so one
// group's trees and index rows stay in cache, and every member engine
// receives the call sequence of a tuple-by-tuple schedule. A panic in a
// member engine is recovered into the reply — the coordinator turns it
// into the sticky engine error — so a fault cannot take the whole
// process down; the groups before the faulty one have then applied the
// whole batch, and the poisoned engine applies nothing more.
func (w *worker) apply(steps []step) (rep reply) {
	defer w.park.Release()
	defer func() {
		if r := recover(); r != nil {
			rep = reply{err: fmt.Errorf("shard %d: member engine panic: %v", w.id, r)}
		}
	}()
	w.buf, w.em, w.spans = w.buf[:0], w.em[:0], w.spans[:0]
	w.plan(steps)
	for _, g := range w.groups {
		for _, p := range g.todo {
			st := &steps[p>>1]
			lo := len(w.em)
			if st.expire {
				g.engine.SetReadEpoch(st.epoch - 1)
				g.engine.ApplyExpiry(st.deadline)
			}
			if p&1 != 0 {
				g.engine.SetReadEpoch(st.epoch)
				if st.del {
					g.engine.ApplyDelete(st.tuple)
				} else {
					g.engine.ApplyInsert(st.tuple)
				}
			}
			if len(w.em) > lo {
				w.spans = append(w.spans, span{g, st.index, lo, len(w.em), st.del})
			}
		}
	}
	w.order()
	return reply{results: w.buf}
}

// plan builds every group's step list for the batch in one pass over it
// (see group.todo): each expiry step goes to every group, each other
// step to the groups with a transition on its label.
func (w *worker) plan(steps []step) {
	for _, g := range w.groups {
		g.todo = g.todo[:0]
	}
	for i := range steps {
		st, p := &steps[i], int32(i)<<1
		if st.expire {
			for _, g := range w.groups {
				g.todo = append(g.todo, p)
			}
		}
		if st.skip {
			continue
		}
		order := w.rel.Groups(int(st.tuple.Label))
		w.dispatches += int64(len(order))
		w.relevanceSkips += int64(len(w.groups) - len(order))
		for _, gi := range order {
			if g := w.groups[gi]; st.expire {
				g.todo[len(g.todo)-1] |= 1
			} else {
				g.todo = append(g.todo, p|1)
			}
		}
	}
}

// ProcessBatch ingests a batch of tuples (timestamps non-decreasing,
// continuing from previous batches) and returns the merged results in
// canonical order. The returned slice is reused by the next call.
// Results are also delivered to the member sinks, in the same order.
// Every shard has finished the batch before it returns: batch
// boundaries are the engine's globally consistent points.
func (s *Engine) ProcessBatch(tuples []stream.Tuple) ([]Result, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: ProcessBatch on closed engine")
	}
	if s.err != nil {
		return nil, s.err
	}
	last := s.now
	for _, t := range tuples {
		if t.TS < last {
			return nil, fmt.Errorf("shard: out-of-order tuple: ts %d after %d", t.TS, last)
		}
		last = t.TS
	}
	s.start()
	s.results = s.results[:0]
	s.process(tuples)
	if s.err != nil {
		return nil, s.err
	}
	for i := range s.results {
		r := &s.results[i]
		if sink := s.members[r.Query].sink; sink != nil {
			if r.Invalidated {
				sink.OnInvalidate(r.Match)
			} else {
				sink.OnMatch(r.Match)
			}
		}
	}
	return s.results, nil
}

// compareResults is the canonical result order: tuple index, query
// registration index, matches before invalidations, then (From, To,
// TS).
func compareResults(a, b Result) int {
	if c := cmp.Compare(a.Tuple, b.Tuple); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Query, b.Query); c != 0 {
		return c
	}
	if a.Invalidated != b.Invalidated {
		if b.Invalidated {
			return -1
		}
		return 1
	}
	return compareMatches(a.Match, b.Match)
}

// compareMatches orders one span's records: by (From, To, TS).
func compareMatches(a, b core.Match) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.TS, b.TS)
}

// process runs one batch (see the package comment): open the graph's
// batch bracket and write the whole batch through graphStep, one epoch
// per step; send the steps to shards 1…n−1 and apply shard 0's groups
// on the caller's goroutine; merge the replies and close the bracket.
func (s *Engine) process(tuples []stream.Tuple) {
	s.g.BeginBatch()
	steps := s.steps[:0]
	for i, t := range tuples {
		st := step{tuple: t, index: i, epoch: s.g.AdvanceEpoch()}
		if s.graphStep(&st); !st.skip || st.expire {
			steps = append(steps, st)
		}
	}
	s.steps = steps
	if len(steps) > 0 {
		for _, w := range s.workers[1:] {
			w.in <- steps
		}
		w0 := s.workers[0]
		if len(s.workers) == 1 {
			// The only shard's records are the batch's, in canonical order.
			w0.buf = s.results
			rep := w0.apply(steps)
			s.results = w0.buf
			s.fail(rep.err)
		} else {
			s.collect(w0.apply(steps))
		}
	}
	s.g.EndBatch()
}

// graphStep is the coordinator's part of one tuple, at the epoch st
// holds: count it and advance the stream clock; at a slide boundary
// expire the graph and record the expiry in st, whose epoch then moves
// past it; then, unless the tuple is clock-only (a negative label: the
// facade's edge filter), insert or delete the edge, whether or not a
// group reads the label. st.skip is set unless some group has work for
// the tuple: a relevant insert, or a relevant deletion that removed a
// live edge.
func (s *Engine) graphStep(st *step) {
	t := st.tuple
	s.seen++
	if t.TS > s.now {
		s.now = t.TS
	}
	if deadline, due := s.win.Observe(t.TS); due {
		s.g.Expire(deadline, nil)
		// The expiry pass reads this epoch; the tuple goes in the next.
		st.expire, st.deadline, st.epoch = true, deadline, s.g.AdvanceEpoch()
	}
	relevant := s.relevantLabel(t.Label)
	st.skip = !relevant // the graph is written even when no member has work
	if !relevant {
		s.dropped++
	}
	if t.Label < 0 {
		return
	}
	if st.del = t.Op == stream.Delete; st.del {
		if !s.g.Delete(t.Key()) {
			st.skip = true // deleting an absent edge is a no-op
			return
		}
	} else {
		s.g.Insert(t.Src, t.Dst, t.Label, t.TS)
	}
}

// fail records err, if any, as the sticky engine error unless one is
// already set.
func (s *Engine) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// collect gathers the replies of shard 0 (first, computed on the
// caller's goroutine) and of every other shard to the batch and merges
// them into the result buffer. Each reply is in canonical order
// already, and all records of one (tuple, query) pair come from the
// shard that owns the query's group, so repeatedly taking the smallest
// head yields the canonical order of the whole batch.
func (s *Engine) collect(first reply) {
	runs := s.runs[:0]
	add := func(rep reply) {
		s.fail(rep.err)
		if rep.err == nil && len(rep.results) > 0 {
			runs = append(runs, rep.results)
		}
	}
	add(first)
	for _, w := range s.workers[1:] {
		add(<-w.out)
	}
	for len(runs) > 0 {
		best := 0
		for i := 1; i < len(runs); i++ {
			if compareResults(runs[i][0], runs[best][0]) < 0 {
				best = i
			}
		}
		s.results = append(s.results, runs[best][0])
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			runs[best] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	s.runs = runs
}
