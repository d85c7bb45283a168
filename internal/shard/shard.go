// Package shard implements the multi-query RPQ coordinator (the
// paper's §7 future-work direction): registration, shared Δ-index
// groups, relevance dispatch and snapshot/restore exist once, here,
// behind one schedule.
//
// The window content G_{W,τ} is query independent, so the snapshot
// graph and the window clock are owned by the coordinator, and the
// graph keeps every labelled tuple of the window whether or not a
// registered query reads its label: a query registered mid-stream
// bootstraps from it exactly as one registered before the first batch
// does from the empty window. Registered
// queries are partitioned round-robin over N shards, each owning the Δ
// spanning-tree indexes of its queries. Every group is one sequential
// core.RAPQ: the coordinator's parallelism is across groups, never
// inside one.
//
// # One schedule: every step reads its own epoch
//
// Every ProcessBatch runs the same path. The snapshot graph keeps
// versions for one batch at a time (internal/graph). The coordinator
// opens the graph's batch bracket and writes the whole batch through
// graphStep, tuple by tuple — count the tuple, expire the graph at a
// slide boundary, decide relevance, mutate the graph through its one
// write API, note the label clock — advancing the epoch once per tuple
// and once more between a slide-boundary expiry and the mutation of the
// tuple that crossed it. Each step records the epoch after its tuple's
// mutation: reading there, a member sees exactly the sequential prefix
// G_{W,τi} of Definition 5, and an expiry pass, reading one epoch
// earlier, sees the expired graph before the tuple arrives. Then shards
// 1…n−1, each on its own goroutine, get the batch's steps as one job,
// while the caller applies shard 0's groups itself; every shard applies
// the steps in stream order, each at its own epoch, and produces its
// records in canonical order. The coordinator k-way merges the replies
// and closes the bracket. With one shard this starts no goroutine and
// uses no channel, and shard 0 writes the engine's result buffer
// directly.
//
// The bracket closes once every shard has replied. Batch boundaries are
// therefore the engine's globally consistent points: no batch is open,
// the graph's epoch is 0 and no superseded version is left — exactly
// where internal/persist takes its checkpoints (the checkpoint
// serialization is the flat, epoch-free edge set), and where queries
// join and leave (Add, Remove) on the caller's goroutine.
//
// The coordinator is the graph's one writer, and it writes only while
// no shard reads: the job send and the reply receive are the only
// synchronization the graph needs.
//
// Since each step reads the sequential prefix as of its tuple, the
// result stream equals that of the tuple-at-a-time reference
// coordinator core.Multi record for record, tuple attribution included,
// at any shard count and batch size — on arbitrary update streams,
// explicit deletions included. The member engines emit on liveness
// transitions backed by support counting (a match exactly when a
// (root, v) pair gains its first in-window final-state witness, an
// invalidation exactly when a deletion removes the last one), so the
// full result stream — invalidations and their multiplicities included
// — is a pure function of the input stream, independent of incidental
// spanning-tree shape, of which shard owns a group and of how the
// stream is cut into batches. Results come in one canonical order (tuple
// index, query registration index, matches before invalidations, then
// (From, To, TS)). The graph's adjacency order depends on where batch
// boundaries fall but not on the shard count, so every work counter,
// InsertCalls included, is the same at every shard count.
//
// # Errors
//
// The engine never panics mid-batch: a panic in a member engine, on a
// shard goroutine or on the caller's, is recovered into a sticky error
// that poisons the engine — the current ProcessBatch (and every later
// one) fails with it, and Close reports it again. Process, whose
// core.Engine signature has no error, records failures in the same
// sticky error (see Err).
package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Result is one merged result of a batch: the member query (by
// registration index) that produced the match, and the batch tuple
// that triggered it.
type Result struct {
	Tuple       int // index into the batch passed to ProcessBatch
	Query       int // query registration index (order of Add calls)
	Match       core.Match
	Invalidated bool // true for results retracted by an explicit deletion
}

type config struct {
	shards  int
	sharing bool
	err     error // a rejected option argument
}

// Option configures an Engine.
type Option func(*config)

// WithShards sets the number of shards queries are partitioned over
// (default 1; n <= 0 is an error). The caller's goroutine runs shard 0;
// every other shard runs on a goroutine of its own.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithWriters has no effect; n <= 0 is still an error.
//
// Deprecated: the coordinator is the graph's one writer. WithWriters
// remains only for its callers in benchmark/ and goes with them
// (ROADMAP item 4).
func WithWriters(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.err = fmt.Errorf("shard: writer count must be positive, got %d", n)
		}
	}
}

// WithSharing toggles shared-group evaluation (default on): queries
// whose bound automata are structurally identical (equal
// automaton.Bound.Fingerprint) subscribe to ONE shared Δ-index group
// whose engine runs once per tuple, with emissions fanned out to every
// subscriber. The engine is deterministic and the merge order is
// canonical, so each subscriber's result stream is byte-identical to
// what a private engine would produce; only the per-tuple work changes.
// Off restores one private group per query.
func WithSharing(on bool) Option { return func(c *config) { c.sharing = on } }

// WithPipelineDepth has no effect; n <= 0 is still an error.
//
// Deprecated: the engine has one schedule. WithPipelineDepth remains
// only for its caller in benchmark/ and goes with it (ROADMAP item 4).
func WithPipelineDepth(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.err = fmt.Errorf("shard: pipeline depth must be positive, got %d", n)
		}
	}
}

// Engine is the multi-query coordinator. It is driven by a single
// goroutine (like every engine in this module): internal concurrency is
// the engine's business, the API is not thread-safe. Close releases the
// goroutines of shards 1…n−1; a one-shard engine starts none.
type Engine struct {
	spec    window.Spec
	g       *graph.Graph
	win     *window.Manager
	workers []*worker
	members []*member
	groups  []*group // active Δ-index groups, creation order
	sharing bool     // equivalent queries share one group (WithSharing)

	// Relevance-filter counters restored from a snapshot; live counts
	// accumulate per worker and are added on top (see Stats).
	dispatchBase int64
	skipBase     int64

	now     int64 // largest timestamp seen; math.MinInt64 before the first
	seen    int64
	dropped int64
	started bool
	closed  bool
	err     error // sticky: first internal failure; engine is poisoned

	// labelTS records, per label, the timestamp of the last graph
	// mutation that carried it (math.MinInt64 for none) — exactly the
	// stream clock a member registered from the start would hold, since
	// members advance their clock on every routed insert and successful
	// delete. Add aligns a bootstrapped member with it.
	labelTS []int64
	// partial is set by RestoreState from a snapshot whose graph holds
	// only its queries' labels (written by a coordinator that dropped the
	// others): a query registered later would bootstrap from part of the
	// window, so Add refuses for the engine's lifetime.
	partial bool

	wg      sync.WaitGroup
	steps   []step     // the batch's steps; reused by the next batch
	runs    [][]Result // the shards' replies being merged (collect)
	results []Result   // the batch's results; reused by the next batch
}

// member is one registered query: its bound automaton, its user sink,
// and the shared Δ-index group it subscribes to. Several members share
// one group when sharing is on and their automata are equivalent.
type member struct {
	bound *automaton.Bound
	sink  core.Sink // user sink; called by the coordinator post-merge
	index int
	key   string // group key (automaton fingerprint, or a private nonce)
	group *group
}

// group owns one member engine, evaluated once per tuple for all its
// subscribers. subs holds the subscriber registration indices in
// ascending order — the fan-out stamps one Result per subscriber, and
// the canonical merge restores per-query order afterwards. The group is
// pinned to one worker shard (chosen by its first subscriber's index).
type group struct {
	engine core.MemberEngine
	bound  *automaton.Bound
	key    string
	subs   []int
	w      *worker
	out    []Result // the current tuple's emissions, before fan-out (see captureSink)
}

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
// pairs it admitted and avoided.
type worker struct {
	id     int
	groups []*group
	rel    core.RelevanceIndex
	in     chan []step
	out    chan reply

	// buf is the buffer emissions go to: the shard's reply, which the
	// coordinator has merged before it sends the next batch — or, for the
	// only shard of a one-shard engine, the engine's result buffer itself.
	buf            []Result
	emitted        []*group // groups holding emissions of the current tuple
	fan            []fanOut // scratch of flush
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

// captureSink collects a group engine's emissions for the tuple being
// applied, once per emission; the worker's flush fans them out when the
// tuple is done.
type captureSink struct{ g *group }

func (c captureSink) OnMatch(m core.Match) { c.emit(Result{Match: m}) }

func (c captureSink) OnInvalidate(m core.Match) { c.emit(Result{Match: m, Invalidated: true}) }

func (c captureSink) emit(r Result) {
	if len(c.g.out) == 0 {
		c.g.w.emitted = append(c.g.w.emitted, c.g)
	}
	c.g.out = append(c.g.out, r)
}

// fanOut is one (subscriber, group) delivery of the tuple being flushed.
type fanOut struct {
	query int
	g     *group
}

// flush moves the emissions the groups collected for one tuple into the
// worker's buffer in canonical order, fanned out to every subscriber —
// one Result per subscribed query, exactly what private engines would
// have appended. Each group's handful of emissions is sorted once,
// whatever its subscriber count, and the subscribers are visited in
// registration order, so the tuple's records need no sort of their own.
func (w *worker) flush(tuple int) {
	if len(w.emitted) == 0 {
		return
	}
	w.fan = w.fan[:0]
	for _, g := range w.emitted {
		slices.SortFunc(g.out, compareResults)
		for _, q := range g.subs {
			w.fan = append(w.fan, fanOut{q, g})
		}
	}
	slices.SortFunc(w.fan, func(a, b fanOut) int { return cmp.Compare(a.query, b.query) })
	for _, f := range w.fan {
		for _, r := range f.g.out {
			r.Tuple, r.Query = tuple, f.query
			w.buf = append(w.buf, r)
		}
	}
	for _, g := range w.emitted {
		g.out = g.out[:0]
	}
	w.emitted = w.emitted[:0]
}

// New creates a sharded engine with the shared window specification.
func New(spec window.Spec, opts ...Option) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := config{shards: 1, sharing: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", cfg.shards)
	}
	s := &Engine{
		spec:    spec,
		g:       graph.New(),
		win:     window.NewManager(spec),
		now:     math.MinInt64,
		workers: make([]*worker, cfg.shards),
		sharing: cfg.sharing,
	}
	for i := range s.workers {
		w := &worker{id: i}
		if i > 0 {
			// One job per batch, and one reply to it.
			w.in = make(chan []step, 1)
			w.out = make(chan reply, 1)
		}
		s.workers[i] = w
	}
	return s, nil
}

// NumShards returns the number of shards.
func (s *Engine) NumShards() int { return len(s.workers) }

// Len returns the number of live (non-removed) queries.
func (s *Engine) Len() int {
	n := 0
	for _, mb := range s.members {
		if mb != nil {
			n++
		}
	}
	return n
}

// SetRetainAll has no effect and returns nil.
//
// Deprecated: the graph always keeps every label. SetRetainAll remains
// only for its caller in benchmark/ and goes with it (ROADMAP item 4).
func (s *Engine) SetRetainAll(bool) error { return nil }

// Graph exposes the shared snapshot graph (read-only use).
func (s *Engine) Graph() *graph.Graph { return s.g }

// Err returns the sticky engine error, if any: the first internal
// failure (e.g. a recovered member-engine panic) that poisoned the
// engine. ProcessBatch and Close surface it too.
func (s *Engine) Err() error { return s.err }

// newMember appends a member slot (without a group yet).
func (s *Engine) newMember(a *automaton.Bound, sink core.Sink, key string) *member {
	mb := &member{bound: a, sink: sink, index: len(s.members), key: key}
	s.members = append(s.members, mb)
	return mb
}

// joinGroup subscribes the member to the group with its key, if sharing
// is on and one exists. Returns nil when a new group is needed.
func (s *Engine) joinGroup(mb *member) *group {
	if !s.sharing {
		return nil
	}
	for _, g := range s.groups {
		if g.key == mb.key {
			g.subs = append(g.subs, mb.index)
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
// its registration index selects.
func (s *Engine) newGroup(e core.MemberEngine, mb *member) *group {
	e.AttachGraph(s.g)
	w := s.workers[mb.index%len(s.workers)]
	g := &group{engine: e, bound: mb.bound, key: mb.key, subs: []int{mb.index}, w: w}
	mb.group = g
	return g
}

// activate attaches a group to its shard: from the next step on its
// emissions are captured and it is dispatched to.
func (s *Engine) activate(g *group) {
	g.engine.SetSink(captureSink{g})
	s.groups = append(s.groups, g)
	g.w.groups = append(g.w.groups, g)
	g.w.rebuild()
}

// Add registers one RAPQ query and returns its engine (for Stats
// probes; RestoreState replaces it); sink may be nil. Registration
// indices (the ids results carry) count Add calls. Call between
// batches, before the first one or mid-stream: both register the same
// way. With sharing on, a query equivalent to an active group subscribes
// to its fan-out and gets the shared engine — that engine was
// registered before, so its future emissions are exactly the suffix a
// private one would emit; no bootstrap. Otherwise the new group, on
// shard index mod NumShards(), has its Δ index bootstrapped from the
// window content in place, on the caller's goroutine (a no-op while the
// window is empty): between batches no batch is open and the shard
// goroutines are parked on their job channels, so the bootstrap reads
// the settled graph at epoch 0 and the group is active on return. From
// the next batch onward the member emits exactly what one registered
// before the first batch emits over the same suffix. Matches emitted
// during the bootstrap replay itself — the window's current live result
// set — are suppressed: a from-start engine emitted them earlier.
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
	mb := s.newMember(a, sink, a.Fingerprint())
	if g := s.joinGroup(mb); g != nil {
		return g.engine.(*core.RAPQ), nil
	}
	e := core.NewRAPQ(a, s.spec) // default discard sink while bootstrapping
	g := s.newGroup(e, mb)
	// The stream clock a from-start engine would hold now: the last
	// timestamp that touched a relevant label, which may be newer than
	// any surviving window edge (see labelTS).
	align := int64(math.MinInt64)
	for l, ts := range s.labelTS {
		if e.RelevantLabel(stream.LabelID(l)) && ts > align {
			align = ts
		}
	}
	boot := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("shard: member %d bootstrap panic: %v", mb.index, r)
			}
		}()
		e.BootstrapFromGraph(s.g)
		e.AlignClock(align)
		return nil
	}
	if s.err = boot(); s.err != nil {
		s.members[mb.index] = nil // never activated
		return nil, s.err
	}
	s.activate(g)
	return e, nil
}

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
	g.subs = slices.DeleteFunc(g.subs, func(q int) bool { return q == index })
	if len(g.subs) == 0 {
		isG := func(c *group) bool { return c == g }
		s.groups = slices.DeleteFunc(s.groups, isG)
		g.w.groups = slices.DeleteFunc(g.w.groups, isG)
		g.w.rebuild()
	}
	return nil
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

// run is the shard goroutine: apply each batch to the shard's queries
// in stream order, then hand the tagged results back.
func (w *worker) run() {
	for steps := range w.in {
		w.out <- w.apply(steps)
	}
}

// apply processes one batch's steps, each at its own epoch, into the
// shard's buffer in canonical order. A panic in a member engine is
// recovered into the reply — the coordinator turns it into the sticky
// engine error — so a fault cannot take the whole process down.
func (w *worker) apply(steps []step) (rep reply) {
	defer func() {
		if r := recover(); r != nil {
			rep = reply{err: fmt.Errorf("shard %d: member engine panic: %v", w.id, r)}
		}
	}()
	w.buf = w.buf[:0]
	for _, st := range steps {
		if st.expire {
			w.expire(st.deadline, st.epoch-1)
		}
		if !st.skip {
			w.dispatch(st.tuple, st.del, st.epoch)
		}
		w.flush(st.index)
	}
	return reply{results: w.buf}
}

// expire runs every group's expiry pass to the deadline, reading the
// graph at epoch ep.
func (w *worker) expire(deadline int64, ep graph.Epoch) {
	for _, g := range w.groups {
		g.engine.SetReadEpoch(ep)
		g.engine.ApplyExpiry(deadline)
	}
}

// dispatch applies one graph mutation, reading the graph at epoch ep,
// to the groups with a transition on its label (the groups are
// independent — they share only the snapshot graph — so order cannot
// change emissions).
func (w *worker) dispatch(t stream.Tuple, del bool, ep graph.Epoch) {
	order := w.rel.Groups(int(t.Label))
	w.dispatches += int64(len(order))
	w.relevanceSkips += int64(len(w.groups) - len(order))
	for _, gi := range order {
		g := w.groups[gi]
		g.engine.SetReadEpoch(ep)
		if del {
			g.engine.ApplyDelete(t)
		} else {
			g.engine.ApplyInsert(t)
		}
	}
}

// Process implements core.Engine for drop-in use in single-tuple
// harnesses: a batch of one. Results flow to the member sinks. The
// Engine interface has no error return, so conditions ProcessBatch
// would report — an out-of-order tuple, a closed engine, a member
// fault — are recorded as the sticky engine error instead of
// panicking mid-batch; check Err (or the error of a later
// ProcessBatch/Close call).
func (s *Engine) Process(t stream.Tuple) {
	if _, err := s.ProcessBatch([]stream.Tuple{t}); err != nil && s.err == nil {
		s.err = err
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
	if c := cmp.Compare(a.Match.From, b.Match.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Match.To, b.Match.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Match.TS, b.Match.TS)
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
// facade's edge filter), insert or delete the edge and note the label's
// clock, whether or not a group reads the label. st.skip is set unless
// some group has work for the tuple: a relevant insert, or a relevant
// deletion that removed a live edge.
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
	s.noteLabel(t)
}

// noteLabel records the per-label stream clock; called for exactly the
// tuples that mutated the graph (see labelTS).
func (s *Engine) noteLabel(t stream.Tuple) {
	for int(t.Label) >= len(s.labelTS) {
		s.labelTS = append(s.labelTS, math.MinInt64)
	}
	if t.TS > s.labelTS[t.Label] {
		s.labelTS[t.Label] = t.TS
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

// addGroupStats folds one group's engine counters into an aggregate:
// index-maintenance counters (Trees, Nodes, InsertCalls, expiry costs)
// once per group — that is the point of sharing — and delivery counters
// (Results, Invalidations) once per subscribed query, matching what
// private engines would have reported for a static query set.
func addGroupStats(out *core.Stats, g *group) {
	ms := g.engine.Stats()
	n := int64(len(g.subs))
	out.Trees += ms.Trees
	out.Nodes += ms.Nodes
	out.Results += ms.Results * n
	out.Invalidations += ms.Invalidations * n
	out.InsertCalls += ms.InsertCalls
	out.ExpiryRuns += ms.ExpiryRuns
	out.ExpiryTime += ms.ExpiryTime
	out.Groups++
	if len(g.subs) > 1 {
		out.SharedGroups++
	}
}

// Stats aggregates group statistics; Edges/Vertices describe the
// shared graph. Call between batches only.
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
		LabelTS: append([]int64(nil), s.labelTS...),
	}
	st.Dispatches, st.RelevanceSkips = s.dispatchCounts()
	// Groups ordered by lowest subscriber index: a canonical order that
	// restore can reproduce without knowing group creation history.
	ordered := append([]*group(nil), s.groups...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].subs[0] < ordered[j].subs[0] })
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
// epoch 0. The snapshot's query→group mapping is authoritative: the groups
// formed at registration (and the engines Add returned for them) are
// replaced by groups rebuilt to match it, so a snapshot restores its
// exact sharing layout at any shard count. A snapshot with Retain unset
// (written by an older coordinator that dropped the labels no query
// read) closes registration: Add fails for the engine's lifetime, and
// its own snapshots carry Retain unset on.
func (s *Engine) RestoreState(st *core.MultiState) error {
	if s.closed {
		return fmt.Errorf("shard: RestoreState on closed engine")
	}
	if s.started || s.seen != 0 {
		return fmt.Errorf("shard: RestoreState after processing started")
	}
	var liveIdx []int
	for i, mb := range s.members {
		if mb != nil {
			liveIdx = append(liveIdx, i)
		}
	}
	parts, states, err := core.PlanGroupPartition(st, liveIdx, func(i int) string { return s.members[i].key })
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := core.RestoreEdges(s.g, st.Edges); err != nil {
		return err
	}
	s.now = st.Now
	s.seen = st.Seen
	s.dropped = st.Dropped
	s.win.SetState(st.Win)
	s.partial = !st.Retain
	s.labelTS = append([]int64(nil), st.LabelTS...)
	s.dispatchBase = st.Dispatches
	s.skipBase = st.RelevanceSkips
	// Every restored group is a fresh RAPQ group over the widest bound of
	// its partition, replacing the ones registration formed.
	s.groups = nil
	for _, w := range s.workers {
		w.groups = w.groups[:0]
		w.rebuild() // a shard the snapshot's layout leaves empty dispatches to nothing
	}
	for gi, part := range parts {
		best := s.members[part[0]]
		for _, idx := range part[1:] {
			if len(s.members[idx].bound.ByLabel) > len(best.bound.ByLabel) {
				best = s.members[idx]
			}
		}
		e := core.NewRAPQ(best.bound, s.spec)
		g := s.newGroup(e, s.members[part[0]])
		g.bound = best.bound
		for _, idx := range part[1:] {
			g.subs = append(g.subs, idx)
			s.members[idx].group = g
		}
		if err := e.RestoreState(states[gi]); err != nil {
			return fmt.Errorf("shard: restore group %d: %w", gi, err)
		}
		s.activate(g)
	}
	return nil
}

// Close stops the shard goroutines, if any were started, and waits for
// them to exit, then reports the sticky engine error, if any. The
// engine cannot be used afterwards. Close is idempotent.
func (s *Engine) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.started {
		for _, w := range s.workers[1:] {
			close(w.in)
		}
		s.wg.Wait()
	}
	return s.err
}

var _ core.Engine = (*Engine)(nil)
