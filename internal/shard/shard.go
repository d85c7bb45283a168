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
// does from the empty window. Queries whose bound automata share a
// fingerprint (automaton.Bound.Fingerprint) subscribe to one Δ-index
// group, so the group layout is a function of the registered automata
// alone, and a checkpoint restores into the groups registration forms.
// Groups are partitioned round-robin over N shards by their first
// subscriber's registration index, each shard owning the Δ
// spanning-tree indexes of its groups. Every group is one sequential
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
// write API — advancing the epoch once per tuple and once more between
// a slide-boundary expiry and the mutation of the tuple that crossed it. Each step records the epoch after its tuple's
// mutation: reading there, a member sees exactly the sequential prefix
// G_{W,τi} of Definition 5, and an expiry pass, reading one epoch
// earlier, sees the expired graph before the tuple arrives. Then shards
// 1…n−1, each on its own goroutine, get the batch's steps as one job,
// while the caller applies shard 0's groups itself. A shard applies the
// batch group by group: one group takes every step it has work in, in
// stream order and each at its own epoch, before the next group starts,
// so the group's trees and index rows stay in cache; since every epoch
// stays readable until the bracket closes, the order of groups cannot
// change what any of them reads. One ordering pass then puts the
// shard's records in canonical order. The coordinator k-way merges the replies
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
// one) fails with it, and Close reports it again (see Err). The groups
// its shard applied before the faulty one have taken the whole batch.
package shard

import (
	"fmt"
	"math"
	"sync"

	"streamrpq/internal/core"
	"streamrpq/internal/graph"
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
	shards int
	err    error // a rejected option argument
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

// New creates a sharded engine with the shared window specification.
func New(spec window.Spec, opts ...Option) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := config{shards: 1}
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
