// Package shard implements the multi-query RPQ coordinator (the
// paper's §7 future-work direction): registration, shared Δ-index
// groups, relevance dispatch, dynamic membership, retain-all mode and
// snapshot/restore exist once, here, behind two schedules.
//
// The window content G_{W,τ} is query independent, so the snapshot
// graph and the window clock are owned by the coordinator; registered
// queries are partitioned round-robin over N worker shards, each
// owning the Δ spanning-tree indexes of its queries. Every group is one
// sequential core.RAPQ: the coordinator's parallelism is across groups,
// never inside one.
//
// # Two schedules
//
// The configuration selects how a batch is run, not what it computes.
// With one shard, pipeline depth 1 and one writer the engine is
// inline: ProcessBatch runs on the caller's goroutine, tuple at a
// time — graph apply, expiry at slide boundaries, then the relevant
// groups — with no worker goroutine, no channel and no plan overlay,
// and never advances the graph epoch (the unversioned fast path of
// internal/graph). Every other configuration is pipelined: each shard
// runs on its own goroutine behind a bounded job channel, so a slow
// shard exerts backpressure on the coordinator instead of queueing
// unboundedly, and the sections below describe how batches are cut and
// overlapped.
//
// # Batching and sub-batch hazards
//
// ProcessBatch applies a whole sub-batch of graph mutations before
// waking the shards, which amortizes coordination to one channel
// round-trip per sub-batch instead of per tuple. Because the graph
// then runs ahead of the tuple a shard is currently applying, the core
// engines ignore edges with ts beyond their stream clock (see the
// horizon filters in core's insert/expiry traversals); with that
// filter a shard processing tuple i observes exactly the sequential
// prefix G_{W,τi}. Three events would let the graph diverge from the
// sequential prefix inside one sub-batch, so they cut a batch into
// sub-batches and are only ever applied as the first step of one:
//
//   - a slide-boundary crossing (expiry physically removes edges that
//     earlier tuples of the batch may still need),
//   - an explicit deletion (its sub-batch is a singleton: tuples after
//     the delete must not be visible while members process it, and the
//     deleted edge must not be visible to tuples after it),
//   - a re-insertion that refreshes an existing edge's timestamp
//     (earlier tuples must observe the pre-refresh timestamp).
//
// # Pipelined sub-batches
//
// The snapshot graph is epoch-versioned (internal/graph): each
// sub-batch's mutations are applied at a fresh epoch, and the shards
// traverse the graph at the epoch their sub-batch was cut against.
// Because readers of epoch k cannot observe epoch-k+1 removals,
// refreshes or inserts, the coordinator no longer has to barrier on a
// hazard: it advances epoch k+1 — expiry, deletion, re-insertion
// included — while the shards are still fanning out epoch k. The
// pipeline is bounded (WithPipelineDepth, default 2 sub-batches in
// flight); the full barrier survives only at batch boundaries, which
// therefore remain the engine's globally consistent points — exactly
// where internal/persist takes its checkpoints, and the checkpoint
// serialization folds the version intervals back into a flat,
// epoch-free graph. They are also where queries join and leave
// (AddDynamic, RemoveDynamic), on the caller's goroutine: with the
// pipeline drained no reader holds an epoch lease, so the only leases
// the graph ever sees are dispatch's — FIFO, at most depth deep.
// Depth 1 reproduces the fully barriered engine:
// every sub-batch is collected immediately after dispatch, before the
// next sub-batch's mutations are applied.
//
// # Multi-writer epoch construction
//
// Within one sub-batch the mutations themselves are built by N writer
// goroutines (WithWriters): the coordinator plans the sub-batch
// serially — hazard checks consult a plan overlay so they observe the
// sub-batch's own unapplied inserts — partitioning every edge mutation
// into two half-mutations owned by the vertex stripes of its
// endpoints, and graph.Applier.Flush applies the per-stripe queues
// concurrently before dispatch. A slab belongs to exactly one stripe
// and each stripe's queue preserves plan order, so every slab sees the
// identical mutation history at any writer count (the deterministic
// stripe-ordered two-phase apply); visibility still flips only at the
// single atomic epoch advance that precedes planning. writers=1
// applies inline and reproduces the single-writer engine byte for
// byte.
//
// Under this discipline the pipelined schedule produces, per query, the
// result stream of the inline schedule (and of the tuple-at-a-time
// reference coordinator core.Multi), at any pipeline depth — on
// arbitrary update streams, explicit deletions included. The member
// engines emit on liveness transitions backed by support counting (a
// match exactly when a (root, v) pair gains its first in-window
// final-state witness, an invalidation exactly when a deletion removes
// the last one), so the full result stream — invalidations and their
// multiplicities included — is a pure function of the input stream,
// independent of incidental spanning-tree shape (the paper's Algorithm
// Delete cuts along tree edges, but which witnesses a cut removes can
// no longer change what is reported). Two runs over the same stream
// therefore yield byte-identical merged result sequences; only the
// attribution of a match to a tuple inside one timestamp tie-group can
// differ between the pipelined schedule and the tuple-at-a-time inline
// one (the sub-batch's same-timestamp edges are already visible), and
// even that attribution is deterministic across pipelined runs and
// configurations. Both schedules return results in one canonical order
// (tuple index, query registration index, matches before invalidations,
// then (From, To, TS)).
//
// # Errors
//
// The engine never panics mid-batch: a panic in a member engine, on a
// shard goroutine or inline, is recovered into a sticky error that
// poisons the engine — the current ProcessBatch (and every later one)
// fails with it, and Close reports it again. Process, whose core.Engine
// signature has no error, records failures in the same sticky error
// (see Err).
package shard

import (
	"cmp"
	"fmt"
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
	depth   int
	writers int
	sharing bool
}

// Option configures an Engine.
type Option func(*config)

// WithShards sets the number of worker shards queries are partitioned
// over (default 1; n <= 0 is an error). One shard at pipeline depth 1
// with one writer is the inline schedule (see the package comment).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithWriters sets the number of writer goroutines building each
// epoch's graph mutations (default 1; n <= 0 is an error). The
// coordinator plans every sub-batch serially, partitions the resulting
// half-mutations by vertex stripe, and n writers apply the per-stripe
// queues concurrently before the sub-batch is dispatched (see
// graph.Applier). Visibility still flips only at the single atomic
// epoch advance, so the result stream is byte-identical at every
// writer count; writers == 1 applies inline with no pool at all.
// Composes freely with WithShards and WithPipelineDepth.
func WithWriters(n int) Option { return func(c *config) { c.writers = n } }

// WithSharing toggles shared-group evaluation (default on): queries
// whose bound automata are structurally identical (equal
// automaton.Bound.Fingerprint) subscribe to ONE shared Δ-index group
// whose engine runs once per tuple, with emissions fanned out to every
// subscriber. The engine is deterministic and the merge order is
// canonical, so each subscriber's result stream is byte-identical to
// what a private engine would produce; only the per-tuple work changes.
// Off restores one private group per query.
func WithSharing(on bool) Option { return func(c *config) { c.sharing = on } }

// WithPipelineDepth bounds how many sub-batches may be in flight —
// dispatched to the shards but not yet collected — at once (default 2;
// n <= 0 is an error). Depth 1 reproduces the fully barriered
// coordinator exactly: the graph and window advance only after every
// shard has finished the previous sub-batch. Depth ≥ 2 lets the
// coordinator apply epoch k+1's graph mutations (expiry, deletions,
// re-insertions included) while the shards still traverse epoch k; the
// epoch-versioned graph keeps each in-flight sub-batch's snapshot
// intact. Batch boundaries always drain the pipeline.
func WithPipelineDepth(n int) Option { return func(c *config) { c.depth = n } }

// Engine is the multi-query coordinator. It is driven by a single
// goroutine (like every engine in this module): internal concurrency is
// the engine's business, the API is not thread-safe. Close releases the
// worker goroutines of the pipelined schedule; the inline schedule
// starts none.
type Engine struct {
	spec    window.Spec
	g       *graph.Graph
	app     *graph.Applier // plans + stripe-parallel-applies epoch mutations (pipelined)
	win     *window.Manager
	depth   int
	inline  bool // one shard, depth 1, one writer: tuple at a time on the caller
	workers []*worker
	members []*member
	groups  []*group // active Δ-index groups, creation order
	sharing bool     // equivalent queries share one group (WithSharing)

	// Relevance-filter counters restored from a snapshot; live counts
	// accumulate per worker and are added on top (see Stats).
	dispatchBase int64
	skipBase     int64

	now     int64
	seen    int64
	dropped int64
	started bool
	closed  bool
	err     error // sticky: first internal failure; engine is poisoned

	// retain-all mode (see SetRetainAll): the graph stores every label
	// so AddDynamic can bootstrap a new query from the live window.
	// labelTS records, per label, the timestamp of the last graph
	// mutation that carried it — exactly the stream clock a member
	// registered from the start would hold, since members advance their
	// clock on every routed insert and successful delete.
	retain  bool
	labelTS []int64

	wg       sync.WaitGroup
	inflight []inflightSub // dispatched, uncollected sub-batches (≤ depth)
	stepPool [][]step      // recycled step slices of collected sub-batches
	results  []Result      // the batch's results; reused by the next batch
}

// inflightSub is one dispatched sub-batch awaiting collection.
type inflightSub struct {
	epoch graph.Epoch
	steps []step
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

// step is one unit of work inside a sub-batch, shipped to every shard.
type step struct {
	tuple    stream.Tuple
	index    int   // tuple index in the user batch, for attribution
	deadline int64 // expiry deadline, when expire is set
	expire   bool  // run ApplyExpiry(deadline) before applying the tuple
	del      bool  // tuple is a deletion that removed a live edge
	skip     bool  // no member work (irrelevant label or no-op delete)
}

// job is one sub-batch dispatched to a shard, tagged with the graph
// epoch its steps were cut against.
type job struct {
	steps []step
	epoch graph.Epoch
}

// reply is a shard's response to one job.
type reply struct {
	results []Result
	err     error
}

// worker owns the groups of one shard. Pipelined, it applies every
// sub-batch to them on its own goroutine; the inline engine's single
// worker has no goroutine and no channels — the coordinator drives its
// groups directly. rel is the shard's per-label dispatch index over its
// own groups (positions into w.groups), rebuilt by the coordinator on
// membership changes between batches; dispatches / relevanceSkips count
// the (step, group) pairs it admitted and avoided.
type worker struct {
	id     int
	groups []*group
	rel    core.RelevanceIndex
	in     chan job
	out    chan reply

	// bufs is the ring of capture buffers the pipelined worker cycles
	// through, one per job: the coordinator has copied reply j-depth out
	// before it sends job j, so depth buffers are never overwritten
	// while being read. buf is the buffer emissions currently go to
	// (inline: the engine's result buffer itself).
	bufs           [][]Result
	applied        int
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
	cfg := config{shards: 1, depth: 2, writers: 1, sharing: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", cfg.shards)
	}
	if cfg.depth <= 0 {
		return nil, fmt.Errorf("shard: pipeline depth must be positive, got %d", cfg.depth)
	}
	if cfg.writers <= 0 {
		return nil, fmt.Errorf("shard: writer count must be positive, got %d", cfg.writers)
	}
	g := graph.New()
	s := &Engine{
		spec:    spec,
		g:       g,
		app:     graph.NewApplier(g, cfg.writers),
		win:     window.NewManager(spec),
		depth:   cfg.depth,
		inline:  cfg.shards == 1 && cfg.depth == 1 && cfg.writers == 1,
		workers: make([]*worker, cfg.shards),
		sharing: cfg.sharing,
	}
	for i := range s.workers {
		w := &worker{id: i}
		if !s.inline {
			// The coordinator blocks when a shard's job queue is full:
			// backpressure, not unbounded buffering. Room for at least two
			// jobs, and for every sub-batch the pipeline keeps in flight.
			w.in = make(chan job, max(2, cfg.depth))
			// Replies for every in-flight sub-batch must fit without
			// blocking the shard, or a fast shard would stall behind the
			// coordinator's lazy collection.
			w.out = make(chan reply, cfg.depth)
			w.bufs = make([][]Result, cfg.depth)
		}
		s.workers[i] = w
	}
	return s, nil
}

// Inline reports whether the engine runs the inline schedule: batches
// on the caller's goroutine, tuple at a time, no worker goroutines.
func (s *Engine) Inline() bool { return s.inline }

// NumShards returns the number of worker shards.
func (s *Engine) NumShards() int { return len(s.workers) }

// PipelineDepth returns the configured bound on in-flight sub-batches.
func (s *Engine) PipelineDepth() int { return s.depth }

// NumWriters returns the configured epoch-construction writer count.
func (s *Engine) NumWriters() int { return s.app.Writers() }

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

// SetRetainAll switches the shared graph to retain-all mode: every
// tuple mutates the graph even when no registered query's alphabet
// contains its label. Prerequisite for AddDynamic (a mid-stream query
// replays the live window, which must have been retained in full).
// Must be set before the first batch.
func (s *Engine) SetRetainAll(on bool) error {
	if s.started || s.seen != 0 {
		return fmt.Errorf("shard: SetRetainAll after processing started")
	}
	s.retain = on
	return nil
}

// Graph exposes the shared snapshot graph (read-only use).
func (s *Engine) Graph() *graph.Graph { return s.g }

// Err returns the sticky engine error, if any: the first internal
// failure (e.g. a recovered member-engine panic) that poisoned the
// engine. ProcessBatch and Close surface it too.
func (s *Engine) Err() error { return s.err }

// Add registers one RAPQ query and returns its engine (for Stats
// probes; RestoreState replaces it). It is the only static
// registration: queries must be added before the first batch; sink may
// be nil. With sharing on, a query equivalent to an already-registered
// one subscribes to the existing group and returns the shared engine; a
// new group is assigned to shard index Len() mod NumShards().
func (s *Engine) Add(a *automaton.Bound, sink core.Sink) (*core.RAPQ, error) {
	if err := s.precheck(a); err != nil {
		return nil, err
	}
	mb := s.newMember(a, sink, a.Fingerprint())
	if g := s.joinGroup(mb); g != nil {
		return g.engine.(*core.RAPQ), nil
	}
	e := core.NewRAPQ(a, s.spec)
	s.activate(s.newGroup(e, mb))
	return e, nil
}

func (s *Engine) precheck(a *automaton.Bound) error {
	if s.closed {
		return fmt.Errorf("shard: Add on closed engine")
	}
	if s.started {
		return fmt.Errorf("shard: Add after processing started (use AddDynamic)")
	}
	return s.checkLabelSpace(a)
}

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

// checkLabelSpace enforces the dense-label-space discipline. Static
// query sets bind every member against the identical space; in
// retain-all (dynamic) mode the space grows monotonically — later
// members see a larger dictionary, and older members bounds-check
// labels beyond their binding (the ΣQ guards in core).
func (s *Engine) checkLabelSpace(a *automaton.Bound) error {
	for _, mb := range s.members {
		if mb == nil {
			continue
		}
		sp := len(mb.bound.ByLabel)
		if s.retain {
			if len(a.ByLabel) < sp {
				return fmt.Errorf("shard: label space shrank: %d vs existing %d labels (bind new queries against the full dictionary)",
					len(a.ByLabel), sp)
			}
			continue
		}
		if len(a.ByLabel) != sp {
			return fmt.Errorf("shard: label space mismatch: %d vs %d labels",
				len(a.ByLabel), sp)
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

// AddDynamic registers one RAPQ query mid-stream and returns its
// registration index (the stable id results carry). The engine must be
// in retain-all mode; call between batches. With sharing on, a query
// equivalent to an active group simply subscribes to its fan-out — the
// shared engine was registered from stream start, so its future
// emissions are exactly the suffix a from-start engine would emit; no
// bootstrap. Otherwise the new group's Δ index is bootstrapped from the
// window content in place, on the caller's goroutine, in both
// schedules: between batches the pipeline is drained, no sub-batch
// holds an epoch lease and the shard goroutines are parked on their job
// channels, so the current epoch is read without a lease and the group
// is active on return. From the next batch onward the member emits
// exactly what a from-start engine emits over the same suffix. Matches
// emitted during the bootstrap replay itself — the window's current
// live result set — are suppressed: a from-start engine emitted them
// before this point.
func (s *Engine) AddDynamic(a *automaton.Bound, sink core.Sink) (int, error) {
	if s.closed {
		return 0, fmt.Errorf("shard: AddDynamic on closed engine")
	}
	if s.err != nil {
		return 0, s.err
	}
	if !s.retain {
		return 0, fmt.Errorf("shard: AddDynamic requires retain-all mode (SetRetainAll before the first batch)")
	}
	if err := s.checkLabelSpace(a); err != nil {
		return 0, err
	}
	mb := s.newMember(a, sink, a.Fingerprint())
	if s.joinGroup(mb) != nil {
		return mb.index, nil
	}
	e := core.NewRAPQ(a, s.spec) // default discard sink while bootstrapping
	g := s.newGroup(e, mb)
	// The stream clock a from-start engine would hold now: the last
	// timestamp that touched a relevant label, which may be newer than
	// any surviving window edge (see labelTS).
	var align int64
	for l, ts := range s.labelTS {
		if e.RelevantLabel(stream.LabelID(l)) && ts > align {
			align = ts
		}
	}
	boot := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("shard: dynamic member %d bootstrap panic: %v", mb.index, r)
			}
		}()
		e.BootstrapFromGraph(s.g)
		e.AlignClock(align)
		return nil
	}
	if s.err = boot(); s.err != nil {
		s.members[mb.index] = nil // never activated
		return 0, s.err
	}
	s.activate(g)
	return mb.index, nil
}

// RemoveDynamic detaches the query with the given registration index.
// Call between batches: the member receives no step of any later batch.
// Its slot becomes a nil tombstone so surviving queries keep their
// registration indices (the canonical merge order depends on them).
func (s *Engine) RemoveDynamic(index int) error {
	if s.closed {
		return fmt.Errorf("shard: RemoveDynamic on closed engine")
	}
	if s.err != nil {
		return s.err
	}
	if index < 0 || index >= len(s.members) || s.members[index] == nil {
		return fmt.Errorf("shard: RemoveDynamic: no query with index %d", index)
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
// label (the shards' dispatch indexes; the inline schedule asks its
// single worker the same question). Tuples outside every alphabet get
// no step and, unless retain-all is on, skip the graph.
func (s *Engine) relevantLabel(l stream.LabelID) bool {
	for _, w := range s.workers {
		if len(w.rel.Groups(int(l))) > 0 {
			return true
		}
	}
	return false
}

// start marks processing as begun and, pipelined, spawns the shard
// goroutines on first use.
func (s *Engine) start() {
	if s.started {
		return
	}
	s.started = true
	if s.inline {
		return
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
}

// run is the shard goroutine: apply each sub-batch to the shard's
// queries in stream order, then hand the tagged results back.
func (w *worker) run() {
	for jb := range w.in {
		w.out <- w.apply(jb)
	}
}

// apply processes one job. A panic in a member engine is recovered
// into the reply — the coordinator turns it into the sticky engine
// error — so a fault cannot take the whole process down mid-pipeline.
func (w *worker) apply(jb job) (rep reply) {
	defer func() {
		if r := recover(); r != nil {
			rep = reply{err: fmt.Errorf("shard %d: member engine panic: %v", w.id, r)}
		}
	}()
	slot := w.applied % len(w.bufs)
	w.applied++
	w.buf = w.bufs[slot][:0]
	defer func() { w.bufs[slot] = w.buf }()
	// Hand every group the epoch this sub-batch was cut against; the
	// coordinator may already be mutating the graph at later epochs.
	for _, g := range w.groups {
		g.engine.SetReadEpoch(jb.epoch)
	}
	for _, st := range jb.steps {
		if st.expire {
			for _, g := range w.groups {
				g.engine.ApplyExpiry(st.deadline)
			}
		}
		if !st.skip {
			w.dispatch(st.tuple, st.del)
		}
		w.flush(st.index)
	}
	return reply{results: w.buf}
}

// dispatch applies one graph mutation to the groups with a transition
// on its label (the groups are independent — they share only the
// snapshot graph — so order cannot change emissions).
func (w *worker) dispatch(t stream.Tuple, del bool) {
	order := w.rel.Groups(int(t.Label))
	w.dispatches += int64(len(order))
	w.relevanceSkips += int64(len(w.groups) - len(order))
	for _, gi := range order {
		if g := w.groups[gi]; del {
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
// The pipeline, if any, is fully drained before returning: batch
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
	if s.inline {
		s.err = s.processInline(tuples)
	} else {
		for i := 0; i < len(tuples); {
			i = s.subBatch(tuples, i)
		}
		s.drain()
		slices.SortFunc(s.results, compareResults)
	}
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

// processInline is the inline schedule: every tuple runs to completion
// on the caller's goroutine — graph and window first, exactly once,
// then the groups with a transition on its label — before the next one
// touches the graph, so the graph never runs ahead of a member and needs
// no epochs. Each tuple's records are flushed straight into the engine's
// result buffer, so tuple order is free and the batch needs no merge. A
// member panic is recovered into the returned (sticky) error.
func (s *Engine) processInline(tuples []stream.Tuple) (err error) {
	w := s.workers[0]
	w.buf = s.results
	defer func() {
		s.results = w.buf
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: member engine panic: %v", r)
		}
	}()
	for i, t := range tuples {
		s.stepInline(w, t)
		w.flush(i)
	}
	return nil
}

// stepInline applies one tuple: expiry when it crosses a slide
// boundary, the graph mutation, then the relevant groups.
func (s *Engine) stepInline(w *worker, t stream.Tuple) {
	s.observe(t)
	if ex, due := s.win.ObserveAt(t.TS, uint64(s.g.Epoch())); due {
		s.win.NoteRemoved(s.g.Expire(ex.Deadline, nil))
		for _, g := range w.groups {
			g.engine.ApplyExpiry(ex.Deadline)
		}
	}
	relevant := s.relevantLabel(t.Label)
	if !relevant {
		s.dropped++
		if !s.retain {
			return
		}
	}
	del := t.Op == stream.Delete
	if del {
		if !s.g.Delete(t.Key()) {
			return // deleting an absent edge is a no-op
		}
	} else {
		s.g.Insert(t.Src, t.Dst, t.Label, t.TS)
	}
	s.noteLabel(t)
	if relevant { // else the graph is updated (retain-all) and no member has work
		w.dispatch(t, del)
	}
}

// observe counts one tuple and advances the stream clock.
func (s *Engine) observe(t stream.Tuple) {
	s.seen++
	if t.TS > s.now {
		s.now = t.TS
	}
}

// noteLabel records the per-label stream clock in retain-all mode;
// called for exactly the tuples that mutated the graph (see labelTS).
func (s *Engine) noteLabel(t stream.Tuple) {
	if !s.retain || t.Label < 0 {
		return
	}
	for int(t.Label) >= len(s.labelTS) {
		s.labelTS = append(s.labelTS, 0)
	}
	if t.TS > s.labelTS[t.Label] {
		s.labelTS[t.Label] = t.TS
	}
}

// getSteps returns a recycled step slice (empty, capacity preserved).
// Step slices cannot be reused while a sub-batch referencing them is in
// flight, so they cycle through the pool on collection.
func (s *Engine) getSteps() []step {
	if n := len(s.stepPool); n > 0 {
		st := s.stepPool[n-1]
		s.stepPool = s.stepPool[:n-1]
		return st[:0]
	}
	return nil
}

// subBatch builds, applies and dispatches one sub-batch starting at
// tuple index i, returning the index of the first tuple of the next
// sub-batch. Shared-state changes happen in two phases at a fresh
// epoch: the coordinator plans every mutation serially (hazard checks
// read the plan overlay, so they see the sub-batch's own unapplied
// inserts), then Flush applies the per-stripe queues with the
// configured writers and barriers before any shard sees the steps.
func (s *Engine) subBatch(tuples []stream.Tuple, i int) int {
	if tuples[i].Op == stream.Delete {
		s.deleteStep(tuples[i], i)
		return i + 1
	}
	epoch := s.app.BeginEpoch()
	steps := s.getSteps()
	j := i
	for ; j < len(tuples); j++ {
		t := tuples[j]
		rel := s.relevantLabel(t.Label)
		ins := rel || s.retain // retain-all mode stores every label
		if j > i {
			_, due := s.win.Peek(t.TS)
			if due || t.Op == stream.Delete || (ins && s.app.Live(t.Key())) {
				break // hazard: must start a fresh sub-batch
			}
		}
		s.observe(t)
		st := step{tuple: t, index: j}
		if ex, due := s.win.ObserveAt(t.TS, uint64(epoch)); due {
			// Expiry only ever fires at the first tuple (the Peek hazard
			// above cuts otherwise), so the plan is empty here — the
			// precondition PlanExpire's FIFO probe needs.
			s.win.NoteRemoved(s.app.PlanExpire(ex.Deadline))
			st.expire, st.deadline = true, ex.Deadline
		}
		if ins {
			s.app.PlanInsert(t.Src, t.Dst, t.Label, t.TS)
			s.noteLabel(t)
		}
		if !rel {
			s.dropped++
			st.skip = true
			if !st.expire {
				continue // nothing for the shards to do
			}
		}
		steps = append(steps, st)
	}
	s.app.Flush()
	s.dispatch(steps, epoch)
	return j
}

// deleteStep handles one explicit deletion as its own sub-batch(es):
// members must run a due expiry pass against the graph as it was
// before the deletion (sequential engines expire before deleting), and
// must process the deletion before any later insert becomes visible.
// The expiry and the deletion are separate epochs, so in-flight
// sub-batches observe neither.
func (s *Engine) deleteStep(t stream.Tuple, index int) {
	s.observe(t)
	epoch := s.app.BeginEpoch()
	if ex, due := s.win.ObserveAt(t.TS, uint64(epoch)); due {
		s.win.NoteRemoved(s.app.PlanExpire(ex.Deadline))
		s.app.Flush()
		steps := append(s.getSteps(), step{index: index, deadline: ex.Deadline, expire: true, skip: true})
		s.dispatch(steps, epoch)
		epoch = s.app.BeginEpoch()
	}
	rel := s.relevantLabel(t.Label)
	if !rel {
		s.dropped++
		if !s.retain {
			return
		}
	}
	if !s.app.PlanDelete(t.Key()) {
		return // deleting an absent edge is a no-op
	}
	s.app.Flush()
	s.noteLabel(t)
	if !rel {
		return // graph updated (retain-all); no member work
	}
	steps := append(s.getSteps(), step{tuple: t, index: index, del: true})
	s.dispatch(steps, epoch)
}

// dispatch fans one sub-batch out to every shard and registers it as
// in flight. Collection is lazy: older sub-batches are collected only
// when the pipeline is full (so at depth 1 this is a full barrier, and
// at depth n the coordinator runs up to n-1 sub-batches ahead of the
// slowest shard). The bounded in-channels provide backpressure.
func (s *Engine) dispatch(steps []step, epoch graph.Epoch) {
	if len(steps) == 0 {
		s.stepPool = append(s.stepPool, steps)
		return
	}
	// The shards traverse the graph at this sub-batch's epoch until
	// collected; register the reader before the first shard could start.
	s.g.AcquireEpoch(epoch)
	jb := job{steps: steps, epoch: epoch}
	for _, w := range s.workers {
		w.in <- jb
	}
	s.inflight = append(s.inflight, inflightSub{epoch: epoch, steps: steps})
	for len(s.inflight) >= s.depth {
		s.collectOldest()
	}
}

// collectOldest gathers every shard's reply for the oldest in-flight
// sub-batch, retires its reader epoch (which lets the graph compact
// versions only that sub-batch could see) and recycles its steps.
func (s *Engine) collectOldest() {
	sub := s.inflight[0]
	s.inflight = s.inflight[1:]
	for _, w := range s.workers {
		rep := <-w.out
		if rep.err != nil {
			if s.err == nil {
				s.err = rep.err
			}
			continue
		}
		s.results = append(s.results, rep.results...)
	}
	s.g.ReleaseEpoch(sub.epoch)
	if sub.steps != nil {
		s.stepPool = append(s.stepPool, sub.steps)
	}
}

// drain collects every in-flight sub-batch: the batch-boundary barrier.
func (s *Engine) drain() {
	for len(s.inflight) > 0 {
		s.collectOldest()
	}
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
// boundaries drain the pipeline, so they are the only globally
// consistent points of the sharded engine. The serialized graph is the
// flat fold of the version intervals at the current epoch (see
// core.SnapshotEdges); the state is epoch-free, so a snapshot taken at
// any shard count and pipeline depth can be restored at any other
// (queries re-partition round-robin on restore).
func (s *Engine) SnapshotState() *core.MultiState {
	st := &core.MultiState{
		Now:     s.now,
		Seen:    s.seen,
		Dropped: s.dropped,
		Win:     s.win.State(),
		Edges:   core.SnapshotEdges(s.g),
		Retain:  s.retain,
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
// and no batch processed yet. The restored graph starts at epoch 0
// regardless of where the snapshotting engine's epoch counter stood.
// The snapshot's query→group mapping is authoritative: the groups
// formed at registration (and the engines Add returned for them) are
// replaced by groups rebuilt to match it, so a snapshot restores its
// exact sharing layout at any shard count.
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
	s.retain = st.Retain
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
// them to drain, then reports the sticky engine error, if any. The
// engine cannot be used afterwards. Close is idempotent.
func (s *Engine) Close() error {
	if s.closed {
		return s.err
	}
	s.drain() // defensive: ProcessBatch drains on every exit path
	s.closed = true
	s.app.Close() // release the writer pool (idle once drained)
	if s.started && !s.inline {
		for _, w := range s.workers {
			close(w.in)
		}
		s.wg.Wait()
	}
	return s.err
}

var _ core.Engine = (*Engine)(nil)
