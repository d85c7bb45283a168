package streamrpq

import (
	"fmt"

	"streamrpq/internal/automaton"
	"streamrpq/internal/core"
	"streamrpq/internal/shard"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// MultiEvaluator runs several persistent RPQs over one streaming
// graph, storing the window content once and routing each tuple only
// to the queries whose alphabet contains its label (the multi-query
// sharing of the paper's future-work section).
//
// All queries share one window specification and one vertex/label
// dictionary. Register queries with NewMultiEvaluator, then stream
// tuples through Ingest or IngestBatch. One coordinator (internal/shard)
// evaluates every configuration; by default it runs inline — on the
// caller's goroutine, tuple at a time, starting no goroutine — and
// WithShards, WithPipelineDepth and WithWriters select its pipelined
// schedule, which partitions the queries over concurrent worker shards.
// Call Close when done (it releases the worker goroutines of the
// pipelined schedule and the persistence files).
type MultiEvaluator struct {
	vertices *stream.Dict
	labels   *stream.Dict
	spec     window.Spec
	eng      *shard.Engine // the coordinator, rebuilt by every With* call
	shards   int           // as configured by the With* calls; 0 = not called
	depth    int
	writers  int
	queries  []*multiMember
	persist  *persistState // nil unless WithPersistence/Recover was used
	lastTS   int64
	started  bool
	dynamic  bool   // EnableDynamicQueries: online add/remove allowed
	sharing  bool   // multi-query sharing: isomorphic automata share one Δ index
	batches  uint64 // batches applied (without persistence; see AppliedBatches)
}

type multiMember struct {
	query   *Query
	bound   *automaton.Bound
	removed bool // tombstone: RemoveQuery keeps indices stable
}

// QueryResult couples one registered query with the matches the last
// Ingest produced for it, plus the previously reported results an
// explicit deletion retracted. Both streams are deterministic: the full
// result sequence, invalidations included, is a pure function of the
// input stream (see README "Determinism & deletions").
type QueryResult struct {
	Query         *Query
	Matches       []Match
	Invalidations []Match // results retracted by an explicit deletion
}

// BatchResult couples one registered query with the matches (and
// deletion-triggered invalidations) one tuple of an IngestBatch
// produced for it. Tuple is the index into the ingested batch.
type BatchResult struct {
	Tuple         int
	Query         *Query
	Matches       []Match
	Invalidations []Match // results retracted by an explicit deletion
}

// NewMultiEvaluator creates a shared evaluator. Register the queries,
// then stream tuples through Ingest.
func NewMultiEvaluator(size, slide int64, queries ...*Query) (*MultiEvaluator, error) {
	m := &MultiEvaluator{
		vertices: stream.NewDict(),
		labels:   stream.NewDict(),
		spec:     window.Spec{Size: size, Slide: slide},
		sharing:  true,
	}
	if err := m.rebuild(); err != nil {
		return nil, err
	}
	// The shared dense label space is the union of all query
	// alphabets; it must be fixed before binding any member.
	for _, q := range queries {
		for _, l := range q.Alphabet() {
			m.labels.ID(l)
		}
	}
	for _, q := range queries {
		if err := m.addQuery(q); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// bind binds the query's automaton against the current label space.
func (m *MultiEvaluator) bind(q *Query) *multiMember {
	return &multiMember{query: q, bound: q.dfa.Bind(func(s string) int {
		id, ok := m.labels.Lookup(s)
		if !ok {
			return -1
		}
		return id
	}, m.labels.Len())}
}

func (m *MultiEvaluator) addQuery(q *Query) error {
	member := m.bind(q)
	if _, err := m.eng.Add(member.bound, nil); err != nil {
		return err
	}
	m.queries = append(m.queries, member)
	return nil
}

func (m *MultiEvaluator) decode(cm core.Match) Match {
	return Match{
		From: m.vertices.Name(int(cm.From)),
		To:   m.vertices.Name(int(cm.To)),
		TS:   cm.TS,
	}
}

// rebuild replaces the coordinator with one of the current
// configuration and re-registers every query slot. With nothing
// configured that is the inline engine (one shard, depth 1, one
// writer); WithShards makes the pipeline depth default to the engine's
// own (2) unless WithPipelineDepth names one.
func (m *MultiEvaluator) rebuild() error {
	opts := []shard.Option{
		shard.WithShards(max(m.shards, 1)),
		shard.WithWriters(max(m.writers, 1)),
		shard.WithSharing(m.sharing),
	}
	if m.depth > 0 {
		opts = append(opts, shard.WithPipelineDepth(m.depth))
	} else if m.shards == 0 {
		opts = append(opts, shard.WithPipelineDepth(1))
	}
	eng, err := shard.New(m.spec, opts...)
	if err != nil {
		return err
	}
	if m.dynamic {
		err = eng.SetRetainAll(true)
	}
	// Re-register every slot — including removed ones, which are added
	// and immediately tombstoned — so facade indices stay engine indices.
	for i := 0; err == nil && i < len(m.queries); i++ {
		if _, err = eng.Add(m.queries[i].bound, nil); err == nil && m.queries[i].removed {
			err = eng.RemoveDynamic(i)
		}
	}
	if err != nil {
		eng.Close()
		return err
	}
	if m.eng != nil {
		m.eng.Close()
	}
	m.eng = eng
	return nil
}

// reconfigure applies one engine setting and rebuilds the coordinator.
// The engine is configured before the first tuple and before
// persistence is enabled: the configuration is recorded in the
// checkpoint metadata.
func (m *MultiEvaluator) reconfigure(what string, set func()) error {
	if m.started {
		return fmt.Errorf("streamrpq: %s after processing started", what)
	}
	if m.persist != nil {
		return fmt.Errorf("streamrpq: %s after WithPersistence (configure the engine before enabling durability)", what)
	}
	set()
	return m.rebuild()
}

// WithShards partitions the registered queries over n concurrent
// worker shards (see internal/shard): each shard owns its queries' Δ
// indexes and updates them on its own goroutine, while the snapshot
// graph and window advance once per sub-batch. Must be called before
// the first Ingest. The result stream does not depend on the shard
// count; against the default inline evaluator only the attribution of
// a match to a tuple within one timestamp tie-group can differ (see
// README "Determinism & deletions"). Call Close when the evaluator is
// no longer needed: it releases the shard goroutines.
func (m *MultiEvaluator) WithShards(n int) error {
	if n <= 0 {
		return fmt.Errorf("streamrpq: shard count must be positive, got %d", n)
	}
	return m.reconfigure("WithShards", func() { m.shards = n })
}

// WithQuerySharing switches multi-query sharing on or off (default
// on). With sharing on, queries whose bound automata are structurally
// identical — including syntactically different but equivalent
// patterns, which minimization canonicalizes — share ONE Δ-index tree
// set, maintained once per tuple; each registered query still receives
// its own complete result stream, byte-identical to what a private
// copy would emit. Off restores one private engine per query, the
// layout the shared-group differentials compare against. Must be
// called before the first tuple; the setting is recorded in
// checkpoints and survives recovery.
func (m *MultiEvaluator) WithQuerySharing(on bool) error {
	return m.reconfigure("WithQuerySharing", func() { m.sharing = on })
}

// QuerySharing reports whether multi-query sharing is enabled.
func (m *MultiEvaluator) QuerySharing() bool { return m.sharing }

// WithPipelineDepth bounds how many sub-batches the coordinator may
// run ahead of its slowest shard (see shard.WithPipelineDepth; 2 once
// WithShards was called, 1 otherwise). Depth 1 is the fully barriered
// coordinator — graph and window advance only between sub-batch
// fan-outs — and, with one shard and one writer, the inline schedule;
// depth ≥ 2 overlaps epoch k+1's graph mutations with epoch k's
// fan-out on the epoch-versioned snapshot graph, byte-identically to
// the barriered run. Call before the first tuple, in any order with
// WithShards and WithWriters.
func (m *MultiEvaluator) WithPipelineDepth(n int) error {
	if n <= 0 {
		return fmt.Errorf("streamrpq: pipeline depth must be positive, got %d", n)
	}
	return m.reconfigure("WithPipelineDepth", func() { m.depth = n })
}

// PipelineDepth returns the coordinator's pipeline depth (1 for the
// default evaluator).
func (m *MultiEvaluator) PipelineDepth() int { return m.eng.PipelineDepth() }

// WithWriters sets how many writer goroutines the coordinator uses to
// build each epoch's graph mutations (see shard.WithWriters; default
// 1). Mutations are planned serially, partitioned by vertex stripe,
// and applied concurrently before each sub-batch is dispatched; the
// result stream is byte-identical at every writer count, so this is
// purely a throughput knob. Call before the first tuple, in any order
// with WithShards and WithPipelineDepth.
func (m *MultiEvaluator) WithWriters(n int) error {
	if n <= 0 {
		return fmt.Errorf("streamrpq: writer count must be positive, got %d", n)
	}
	return m.reconfigure("WithWriters", func() { m.writers = n })
}

// Writers returns the coordinator's epoch-construction writer count.
func (m *MultiEvaluator) Writers() int { return m.eng.NumWriters() }

// EnableDynamicQueries switches the evaluator to retain-all mode, the
// prerequisite for registering or removing queries mid-stream (AddQuery
// / RemoveQuery): the shared graph then stores every label — not just
// the union of the registered alphabets — so a query registered later
// can bootstrap its Δ index from the live window. Must be called before
// the first tuple; the mode survives reconfiguration and, with
// persistence, checkpoint/recovery.
func (m *MultiEvaluator) EnableDynamicQueries() error {
	if m.started {
		return fmt.Errorf("streamrpq: EnableDynamicQueries after processing started")
	}
	if err := m.eng.SetRetainAll(true); err != nil {
		return fmt.Errorf("streamrpq: %w", err)
	}
	m.dynamic = true
	return nil
}

// DynamicQueries reports whether online registration is enabled.
func (m *MultiEvaluator) DynamicQueries() bool { return m.dynamic }

// AddQuery registers a query online and returns its registration index
// (stable for the evaluator's lifetime; the id RemoveQuery and
// QueryByIndex take). Requires EnableDynamicQueries before the first
// tuple. Call between batches: the query's Δ index is bootstrapped in
// place, on the caller's goroutine, by replaying the retained window
// content, and from the next batch on the query emits exactly what it
// would have emitted had it been registered from stream start (matches
// already live in the window are not re-emitted).
// With persistence enabled the registration is made durable by an
// immediate synchronous checkpoint before AddQuery returns.
func (m *MultiEvaluator) AddQuery(q *Query) (int, error) {
	if !m.dynamic {
		return 0, fmt.Errorf("streamrpq: AddQuery requires EnableDynamicQueries before the first tuple")
	}
	// Grow the shared label dictionary by the new alphabet, then bind
	// against the full space (older members bounds-check beyond theirs).
	for _, l := range q.Alphabet() {
		m.labels.ID(l)
	}
	member := m.bind(q)
	idx, err := m.eng.AddDynamic(member.bound, nil)
	if err != nil {
		return 0, fmt.Errorf("streamrpq: %w", err)
	}
	if idx != len(m.queries) {
		return 0, fmt.Errorf("streamrpq: internal error: registration index skew (%d vs %d)", idx, len(m.queries))
	}
	m.queries = append(m.queries, member)
	if m.persist != nil {
		// A registration is durable only through a checkpoint: WAL batches
		// replayed after recovery must see the query set they were
		// evaluated under. Crash before this completes ⇒ the registration
		// is cleanly lost (no batch can have been ingested in between).
		if err := m.Checkpoint(); err != nil {
			return idx, fmt.Errorf("streamrpq: AddQuery checkpoint: %w", err)
		}
	}
	return idx, nil
}

// RemoveQuery detaches the query with the given registration index.
// The removal takes effect at the next batch boundary; surviving
// queries keep their indices. With persistence enabled the removal is
// checkpointed synchronously, like AddQuery.
func (m *MultiEvaluator) RemoveQuery(index int) error {
	if !m.dynamic {
		return fmt.Errorf("streamrpq: RemoveQuery requires EnableDynamicQueries")
	}
	if index < 0 || index >= len(m.queries) || m.queries[index].removed {
		return fmt.Errorf("streamrpq: RemoveQuery: no query with index %d", index)
	}
	if err := m.eng.RemoveDynamic(index); err != nil {
		return fmt.Errorf("streamrpq: %w", err)
	}
	m.queries[index].removed = true
	if m.persist != nil {
		if err := m.Checkpoint(); err != nil {
			return fmt.Errorf("streamrpq: RemoveQuery checkpoint: %w", err)
		}
	}
	return nil
}

// RegisteredQueries returns every registration slot in index order;
// removed queries appear as nil. The slice is a copy.
func (m *MultiEvaluator) RegisteredQueries() []*Query {
	out := make([]*Query, len(m.queries))
	for i, member := range m.queries {
		if !member.removed {
			out[i] = member.query
		}
	}
	return out
}

// Persistent reports whether durability is enabled (WithPersistence or
// Recover).
func (m *MultiEvaluator) Persistent() bool { return m.persist != nil }

// QueryByIndex returns the query registered under the given index, or
// nil if the index is out of range or the query was removed.
func (m *MultiEvaluator) QueryByIndex(index int) *Query {
	if index < 0 || index >= len(m.queries) || m.queries[index].removed {
		return nil
	}
	return m.queries[index].query
}

// AppliedBatches counts the batches the evaluator has applied (with
// persistence: committed). It is the coarse component of a resume
// token — results of batch n carry sequence positions (n, i) with i
// the result's rank within the batch's deterministic merge order.
func (m *MultiEvaluator) AppliedBatches() uint64 {
	if m.persist != nil {
		return m.persist.appliedBatches
	}
	return m.batches
}

// Err returns the coordinator's sticky error (a recovered member-engine
// fault that poisoned it), if any.
func (m *MultiEvaluator) Err() error { return m.eng.Err() }

// NumQueries returns the number of live (non-removed) queries.
func (m *MultiEvaluator) NumQueries() int {
	n := 0
	for _, member := range m.queries {
		if !member.removed {
			n++
		}
	}
	return n
}

// NumShards returns the shard count (1 until WithShards is called).
func (m *MultiEvaluator) NumShards() int { return m.eng.NumShards() }

// Close releases the shard worker goroutines (when the pipelined
// schedule started any) and closes the persistence WAL (when enabled).
// It reports the coordinator's sticky error, if any, or a WAL-close
// failure. It is idempotent.
func (m *MultiEvaluator) Close() error {
	err := m.eng.Close()
	if m.persist != nil {
		if cerr := m.persist.mgr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (m *MultiEvaluator) encode(t Tuple) stream.Tuple {
	op := stream.Insert
	if t.Delete {
		op = stream.Delete
	}
	return stream.Tuple{
		TS:    t.TS,
		Src:   stream.VertexID(m.vertices.ID(t.Src)),
		Dst:   stream.VertexID(m.vertices.ID(t.Dst)),
		Label: stream.LabelID(m.labels.ID(t.Label)),
		Op:    op,
	}
}

// Ingest consumes one tuple and returns, per registered query, the
// matches it produced (queries with no new matches are omitted). It is
// IngestBatch over a batch of one: with persistence enabled the tuple
// is logged (and its results committed) as such.
func (m *MultiEvaluator) Ingest(t Tuple) ([]QueryResult, error) {
	brs, err := m.IngestBatch([]Tuple{t})
	if err != nil {
		return nil, err
	}
	out := make([]QueryResult, len(brs))
	for i, br := range brs {
		out[i] = QueryResult{Query: br.Query, Matches: br.Matches, Invalidations: br.Invalidations}
	}
	return out, nil
}

// IngestBatch consumes a batch of tuples (timestamps non-decreasing,
// continuing from previous calls) and returns the matches grouped by
// (tuple, query), ordered by tuple index and then query registration
// order; within one (tuple, query) group matches and invalidations are
// each in canonical (From, To, TS) order, in every configuration. The
// default inline coordinator runs the batch tuple by tuple on the
// calling goroutine; the pipelined one evaluates it with one
// coordinated fan-out per sub-batch, which is where the multicore
// throughput comes from.
func (m *MultiEvaluator) IngestBatch(tuples []Tuple) ([]BatchResult, error) {
	// Validate the whole batch up front — against the stream clock and
	// internally — so a rejected batch leaves no partial engine state.
	last, checking := m.lastTS, m.started
	for _, t := range tuples {
		if checking && t.TS < last {
			return nil, fmt.Errorf("streamrpq: out-of-order tuple: ts %d after %d", t.TS, last)
		}
		last, checking = t.TS, true
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	if m.persist != nil {
		if err := m.persist.pendingError(); err != nil {
			return nil, err
		}
	}
	encoded := make([]stream.Tuple, len(tuples))
	for i, t := range tuples {
		encoded[i] = m.encode(t)
	}
	if m.persist != nil {
		if err := m.persist.appendBatch(m, encoded); err != nil {
			return nil, err
		}
	}
	out, err := m.ingestEncoded(encoded)
	if err != nil {
		return nil, err
	}
	if m.persist != nil {
		if err := m.persist.commitBatch(m, last, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ingestEncoded drives one validated, dictionary-encoded batch through
// the coordinator and returns the grouped results. It is the shared
// inner path of IngestBatch and of WAL replay during recovery (which
// feeds logged id-tuples back in without re-encoding).
func (m *MultiEvaluator) ingestEncoded(encoded []stream.Tuple) ([]BatchResult, error) {
	if len(encoded) == 0 {
		return nil, nil
	}
	results, err := m.eng.ProcessBatch(encoded)
	if err != nil {
		return nil, fmt.Errorf("streamrpq: %w", err)
	}
	m.started = true
	m.lastTS = encoded[len(encoded)-1].TS
	m.batches++
	return m.groupResults(results), nil
}

// groupResults folds the coordinator's results into one BatchResult
// per (tuple, query). They arrive in canonical order, so every (tuple,
// query, kind) run is contiguous: each run is decoded into one slice
// of exactly its length.
func (m *MultiEvaluator) groupResults(results []shard.Result) []BatchResult {
	sameGroup := func(a, b *shard.Result) bool { return a.Tuple == b.Tuple && a.Query == b.Query }
	groups := 0
	for i := range results {
		if i == 0 || !sameGroup(&results[i-1], &results[i]) {
			groups++
		}
	}
	out := make([]BatchResult, 0, groups)
	for lo := 0; lo < len(results); {
		first := &results[lo]
		hi := lo + 1
		for hi < len(results) && sameGroup(first, &results[hi]) && results[hi].Invalidated == first.Invalidated {
			hi++
		}
		run := make([]Match, hi-lo)
		for i := range run {
			run[i] = m.decode(results[lo+i].Match)
		}
		if lo == 0 || !sameGroup(&results[lo-1], first) {
			out = append(out, BatchResult{Tuple: first.Tuple, Query: m.queries[first.Query].query})
		}
		if br := &out[len(out)-1]; first.Invalidated {
			br.Invalidations = run
		} else {
			br.Matches = run
		}
		lo = hi
	}
	return out
}

// Stats aggregates engine statistics across queries; graph sizes
// describe the shared window content.
func (m *MultiEvaluator) Stats() Stats { return m.eng.Stats() }

// ShardStats reports, per shard, the aggregated statistics of the
// queries it owns (one entry until WithShards is called).
func (m *MultiEvaluator) ShardStats() []Stats { return m.eng.ShardStats() }
