// Package core implements the streaming RPQ evaluation algorithms of
// Pacaci, Bonifati and Özsu, "Regular Path Query Evaluation on
// Streaming Graphs" (SIGMOD 2020). The paper evaluates both path
// semantics "in a uniform manner", and so does the package: one Δ
// substrate (delta.go, tree_store.go, inv.go) — spanning
// trees as one array of 32-byte node records each, under flat
// slot-addressed tables, the vertex → tree-nodes inverted index (a flat
// table with a row only for each vertex in some tree, listing its nodes
// by tree, state and slot: RAPQ routes a tuple and decides a pair's
// liveness from it without probing a tree), the tuple routing,
// Algorithm Delete's subtree marking (§3.2: negative tuples go through
// the expiry machinery) and the canonical liveness bookkeeping behind
// every match and invalidation — with two policies over it, and oracles
// beside them:
//
//   - RAPQ (§3): arbitrary path semantics. Algorithm Insert and
//     ExpiryRAPQ over a unique (vertex, state) → node index; Insert
//     keeps node timestamps at their max-min fixpoint, so a window pass
//     only prunes and reconnection runs on deletions alone: a repair in
//     place that settles each marked node once, widest path first.
//   - RSPQ (§4): simple path semantics. Algorithms Extend, Unmark and
//     ExpiryRSPQ — markings and conflict detection over the
//     suffix-language containment relation — over per-key instance
//     lists.
//   - Batch oracles: the polynomial product-graph algorithm for
//     arbitrary semantics and a simple-path enumerator, used both for
//     testing and as the substrate of the rescan baseline (§5.6).
//
// An engine maintains its Δ on the goroutine that drives it, through
// one reused scratch, and applies every emission, counter and index
// update as it happens. Parallelism is the coordinator's business
// (internal/shard), across engines, never inside one. On a graph shared
// with other queries an engine still pays only for its own labels, as in
// §5.2: its traversals copy only the cells its automaton steps on.
package core

import (
	"time"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// Match is a query result: the pair (From, To) is connected by a path
// whose label is in L(R) and whose edges are all inside one window.
// TS is the stream time at which the result was discovered.
type Match struct {
	From stream.VertexID
	To   stream.VertexID
	TS   int64
}

// Pair identifies a result independent of discovery time.
type Pair struct {
	From stream.VertexID
	To   stream.VertexID
}

// Sink receives the append-only result stream of a persistent query.
// OnInvalidate is called only for results retracted by explicit
// deletions (§3.2); window expiry never retracts results under the
// implicit window semantics the engines implement.
type Sink interface {
	OnMatch(m Match)
	OnInvalidate(m Match)
}

// Engine is a persistent RPQ evaluator: tuples go in, results flow to
// the Sink.
type Engine interface {
	// Process consumes one streaming graph tuple (insert or delete).
	Process(t stream.Tuple)
	// Stats returns a snapshot of internal counters.
	Stats() Stats
	// Graph exposes the current snapshot graph (read-only use).
	Graph() *graph.Graph
}

// MemberEngine is the contract between a multi-query coordinator
// (the engine in internal/shard, or the reference Multi) and one member
// query's index maintenance; *RAPQ implements it, and tests substitute
// fakes through it. The coordinator owns the shared snapshot graph and
// the window clock: it attaches its graph to every member, applies each
// graph mutation exactly once, and then drives the members' Δ-index
// updates through Apply*. Members never mutate the shared graph.
type MemberEngine interface {
	// AttachGraph replaces the engine's private snapshot graph with the
	// coordinator's shared one. Must precede the first Apply call.
	AttachGraph(g *graph.Graph)
	// SetReadEpoch hands the engine the epoch at which subsequent Apply
	// traversals observe the shared graph. The coordinator writes a
	// whole batch, one epoch per tuple, before its members apply it;
	// the epoch handle makes the engine see exactly the snapshot as of
	// the tuple it applies. Standalone engines leave it at 0, which is
	// their private graph's (never advanced) current epoch.
	SetReadEpoch(e graph.Epoch)
	// ApplyInsert updates the Δ index for an edge the coordinator has
	// already inserted into the shared graph.
	ApplyInsert(t stream.Tuple)
	// ApplyDelete handles an explicit deletion the coordinator has
	// already removed from the shared graph.
	ApplyDelete(t stream.Tuple)
	// ApplyExpiry runs the window-expiry pass for a slide-boundary
	// deadline; the coordinator has already expired the shared graph.
	ApplyExpiry(deadline int64)
	// LabelSpace returns the dense label-space size the automaton was
	// bound against; all members of one coordinator must agree.
	LabelSpace() int
	// Stats returns a snapshot of internal counters.
	Stats() Stats
	// SnapshotState captures the member's Δ index and clocks for a
	// checkpoint (internal/persist). Call only at a consistent point:
	// between batches for a sharded coordinator.
	SnapshotState() *RAPQState
	// RestoreState rebuilds the Δ index from a checkpoint. Only legal on
	// a freshly constructed member before any Apply call.
	RestoreState(*RAPQState) error
	// RestoreFromGraph is RestoreState for a state whose trees were
	// numbered for another automaton: it restores the clocks and
	// counters and rebuilds the Δ index from the window content of g.
	RestoreFromGraph(*RAPQState, *graph.Graph) error
	// SelfPairs returns the (x, x) records among the emitted ones.
	SelfPairs() SelfPairs
	// SetParking hands the engine the parking its trees' arrays come
	// from and go to (nil: allocate and drop, as a standalone engine
	// does). The coordinator runs every engine sharing one parking on
	// one goroutine and empties it at each batch boundary.
	SetParking(p *Parking)
	// SetSink redirects the engine's result stream (nil discards). A
	// dynamically registered member bootstraps into a discard sink, then
	// gets the coordinator's capture sink installed at activation.
	SetSink(s Sink)
}

// Stats captures the internal state sizes and costs the paper reports
// (Figures 5, 6(b), 9).
//
// InsertCalls after a restore can drift from an uninterrupted run's once
// a deletion is repaired: the restore lays out slots, sibling lists and
// graph adjacency canonically, and the repair breaks ties between equal
// offers in those orders. Results and every other counter agree.
type Stats struct {
	Trees          int   // |Δ|: number of spanning trees
	Nodes          int   // total nodes over all spanning trees
	Edges          int   // edges in the snapshot graph
	Vertices       int   // vertices in the snapshot graph
	Results        int64 // results emitted (append-only stream length)
	Invalidations  int64 // results retracted by explicit deletions
	TuplesSeen     int64 // tuples offered to the engine
	TuplesDropped  int64 // tuples whose label is outside ΣQ
	ExpiryRuns     int64 // number of window-expiry passes
	ExpiryTime     time.Duration
	InsertCalls    int64 // invocations of Insert/Extend, and RAPQ's settles in a deletion's repair (amortized-cost probe)
	ConflictsFound int64 // RSPQ only
	Unmarkings     int64 // RSPQ only

	// Multi-query coordinators only: shared-group layout and the effect
	// of the per-label relevance filter on dispatch.
	Groups         int   // live Δ-index groups (≤ live queries)
	SharedGroups   int   // groups evaluated once for ≥ 2 subscribed queries
	Dispatches     int64 // (tuple, group) applications passing the label filter
	RelevanceSkips int64 // (tuple, group) applications the filter avoided
}

// SelfPairs counts the records an engine emitted for pairs (x, x): the
// ones a coordinator drops for a subscriber whose query never reports
// them (see GroupBinding), and subtracts from that subscriber's
// delivery counters.
type SelfPairs struct {
	Results       int64 // matches (x, x) among Stats.Results
	Invalidations int64 // invalidations (x, x) among Stats.Invalidations
}

// nodeKey packs a (vertex, automaton state) pair, the state in the low
// 16 bits. An automaton with more than MaxStates states would alias
// distinct nodes: streamrpq.Compile rejects such a pattern with an
// error, and the engine constructors panic on one that slipped through.
type nodeKey uint64

// MaxStates is the largest automaton the engines can index.
const MaxStates = 1 << 16

func mkNodeKey(v stream.VertexID, s int32) nodeKey {
	return nodeKey(uint64(v)<<16 | uint64(uint16(s)))
}

func (k nodeKey) vertex() stream.VertexID { return stream.VertexID(k >> 16) }
func (k nodeKey) state() int32            { return int32(uint16(k)) }

// config carries options shared by both engines.
type config struct {
	spec window.Spec
	sink Sink
	// maxExtends bounds the Extend cascade per tuple in the RSPQ
	// engine as a safety valve against the NP-hard worst case; 0 means
	// unlimited.
	maxExtends int64
}

// Option configures an engine.
type Option func(*config)

// WithSink directs the result stream to s. The default sink discards
// results (useful for pure throughput benchmarks).
func WithSink(s Sink) Option { return func(c *config) { c.sink = s } }

// WithMaxExtends bounds the RSPQ Extend cascade per tuple (0 =
// unlimited). The RAPQ engine ignores it.
func WithMaxExtends(n int64) Option { return func(c *config) { c.maxExtends = n } }

// discardSink drops everything.
type discardSink struct{}

func (discardSink) OnMatch(Match)      {}
func (discardSink) OnInvalidate(Match) {}

// CollectorSink accumulates the result stream with set semantics: a
// pair is live if it has been matched and not invalidated since.
type CollectorSink struct {
	Live    map[Pair]int64 // pair -> first TS at which currently live
	Matched []Match        // full append-only match log
	Retract []Match        // full invalidation log
}

// NewCollector returns an empty CollectorSink.
func NewCollector() *CollectorSink {
	return &CollectorSink{Live: make(map[Pair]int64)}
}

// OnMatch implements Sink.
func (c *CollectorSink) OnMatch(m Match) {
	c.Matched = append(c.Matched, m)
	p := Pair{From: m.From, To: m.To}
	if _, ok := c.Live[p]; !ok {
		c.Live[p] = m.TS
	}
}

// OnInvalidate implements Sink.
func (c *CollectorSink) OnInvalidate(m Match) {
	c.Retract = append(c.Retract, m)
	delete(c.Live, Pair{From: m.From, To: m.To})
}

// Pairs returns the distinct pairs ever matched.
func (c *CollectorSink) Pairs() map[Pair]struct{} {
	out := make(map[Pair]struct{}, len(c.Matched))
	for _, m := range c.Matched {
		out[Pair{From: m.From, To: m.To}] = struct{}{}
	}
	return out
}

// CountingSink counts matches without retaining them.
type CountingSink struct {
	Matches       int64
	Invalidations int64
}

// OnMatch implements Sink.
func (c *CountingSink) OnMatch(Match) { c.Matches++ }

// OnInvalidate implements Sink.
func (c *CountingSink) OnInvalidate(Match) { c.Invalidations++ }

// FuncSink adapts functions to the Sink interface. Nil fields are
// no-ops.
type FuncSink struct {
	Match      func(Match)
	Invalidate func(Match)
}

// OnMatch implements Sink.
func (f FuncSink) OnMatch(m Match) {
	if f.Match != nil {
		f.Match(m)
	}
}

// OnInvalidate implements Sink.
func (f FuncSink) OnInvalidate(m Match) {
	if f.Invalidate != nil {
		f.Invalidate(m)
	}
}

var (
	_ Sink = (*CollectorSink)(nil)
	_ Sink = (*CountingSink)(nil)
	_ Sink = FuncSink{}
	_ Sink = discardSink{}
	_      = automaton.NoState
)
