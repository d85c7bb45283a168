package streamrpq

import (
	"fmt"
	"slices"

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
// dictionary. Register queries with NewMultiEvaluator or, at any batch
// boundary, AddQuery, and stream tuples through Ingest or IngestBatch.
// The shared graph keeps the whole window, every label included, so a
// query registered mid-stream starts from it. One coordinator
// (internal/shard) evaluates every configuration: by default it runs
// its one shard on the caller's goroutine, starting no goroutine, and
// WithShards partitions the queries over concurrent shards. Call Close
// when done (it releases the shard goroutines and the persistence
// files).
type MultiEvaluator struct {
	fe      frontEnd
	spec    window.Spec
	eng     *shard.Engine // the coordinator, built only by rebuild
	queries []*Query      // registration slots in index order; nil = removed
	persist *persistState // nil unless WithPersistence/Recover was used
	batches uint64        // batches applied (without persistence; see AppliedBatches)
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
// produced for it. Tuple is the index into the ingested batch;
// QueryIndex is the query's registration index, which tells apart two
// registrations of one *Query.
type BatchResult struct {
	Tuple         int
	Query         *Query
	QueryIndex    int
	Matches       []Match
	Invalidations []Match // results retracted by an explicit deletion
}

// NewMultiEvaluator creates a shared evaluator. Register the queries,
// then stream tuples through Ingest.
func NewMultiEvaluator(size, slide int64, queries ...*Query) (*MultiEvaluator, error) {
	m := &MultiEvaluator{
		fe:      newFrontEnd(0, nil),
		spec:    window.Spec{Size: size, Slide: slide},
		queries: slices.Clone(queries),
	}
	// Every member binds against one dense label space, the union of
	// all query alphabets.
	m.fe.intern(queries...)
	if err := m.rebuild(1); err != nil {
		return nil, err
	}
	return m, nil
}

// rebuild replaces the coordinator with an n-shard one built from the
// registration list, the only place a coordinator is built. Every slot
// is registered in index order: a live query bound against the current
// label space, a removed one as an empty slot, so registration indices
// are the coordinator's indices.
func (m *MultiEvaluator) rebuild(n int) error {
	eng, err := shard.New(m.spec, shard.WithShards(n))
	if err != nil {
		return err
	}
	for _, q := range m.queries {
		if q == nil {
			eng.AddRemoved()
		} else if _, err := eng.Add(m.fe.bind(q), nil); err != nil {
			eng.Close()
			return err
		}
	}
	if m.eng != nil {
		m.eng.Close()
	}
	m.eng = eng
	return nil
}

// WithShards partitions the registered queries over n concurrent
// shards (see internal/shard): each shard owns its queries' Δ indexes
// and updates them — shard 0 on the caller's goroutine, every other one
// on its own — each tuple against the snapshot graph as of that tuple.
// Must be called before the first Ingest. The result stream does not
// depend on the shard count: it equals the default one-shard
// evaluator's record for record (see README "Determinism & deletions").
// Call Close when the evaluator is no longer needed: it releases the
// shard goroutines. The shard count is recorded in the checkpoint
// metadata, so it is set before persistence is enabled.
func (m *MultiEvaluator) WithShards(n int) error {
	if n <= 0 {
		return fmt.Errorf("streamrpq: shard count must be positive, got %d", n)
	}
	if m.fe.clock.started {
		return fmt.Errorf("streamrpq: WithShards after processing started")
	}
	if m.persist != nil {
		return fmt.Errorf("streamrpq: WithShards after WithPersistence (configure the engine before enabling durability)")
	}
	return m.rebuild(n)
}

// WithWriters has no effect; n <= 0 is still an error.
//
// Deprecated: the coordinator is the graph's one writer (see
// shard.WithWriters). WithWriters remains only for its
// callers in benchmark/ and goes with them (ROADMAP item 4).
func (m *MultiEvaluator) WithWriters(n int) error {
	if n <= 0 {
		return fmt.Errorf("streamrpq: writer count must be positive, got %d", n)
	}
	return nil
}

// EnableDynamicQueries has no effect and returns nil.
//
// Deprecated: every evaluator keeps the whole window and registers
// queries at any batch boundary (AddQuery). EnableDynamicQueries remains
// only for its caller in benchmark/ and goes with it (ROADMAP item 4).
func (m *MultiEvaluator) EnableDynamicQueries() error { return nil }

// AddQuery registers a query and returns its registration index (stable
// for the evaluator's lifetime; the id RemoveQuery and QueryByIndex
// take). Call between batches, before the first one or mid-stream: the
// query's Δ index is bootstrapped in place, on the caller's goroutine,
// from the window content, and from the next batch on the query emits
// exactly what it would have emitted had it been registered from stream
// start (matches already live in the window are not re-emitted). An
// evaluator recovered from a checkpoint whose graph kept only its
// queries' labels (written by older versions) refuses new queries.
// With persistence enabled the registration is made durable by an
// immediate synchronous checkpoint before AddQuery returns; if that
// checkpoint fails, the query is registered all the same and AddQuery
// returns its index with the error.
func (m *MultiEvaluator) AddQuery(q *Query) (int, error) {
	// Grow the shared label dictionary by the new alphabet and bind
	// against the full space (older members bounds-check beyond theirs).
	if _, err := m.eng.Add(m.fe.bind(q), nil); err != nil {
		return 0, fmt.Errorf("streamrpq: %w", err)
	}
	m.queries = append(m.queries, q)
	idx := len(m.queries) - 1
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
// queries keep their indices, across Checkpoint and Recover too. With
// persistence enabled the removal is checkpointed synchronously, like
// AddQuery.
func (m *MultiEvaluator) RemoveQuery(index int) error {
	if m.QueryByIndex(index) == nil {
		return fmt.Errorf("streamrpq: RemoveQuery: no query with index %d", index)
	}
	if err := m.eng.Remove(index); err != nil {
		return fmt.Errorf("streamrpq: %w", err)
	}
	m.queries[index] = nil
	if m.persist != nil {
		if err := m.Checkpoint(); err != nil {
			return fmt.Errorf("streamrpq: RemoveQuery checkpoint: %w", err)
		}
	}
	return nil
}

// RegisteredQueries returns every registration slot in index order;
// removed queries appear as nil. The slice is a copy.
func (m *MultiEvaluator) RegisteredQueries() []*Query { return slices.Clone(m.queries) }

// Persistent reports whether durability is enabled (WithPersistence or
// Recover).
func (m *MultiEvaluator) Persistent() bool { return m.persist != nil }

// QueryByIndex returns the query registered under the given index, or
// nil if the index is out of range or the query was removed.
func (m *MultiEvaluator) QueryByIndex(index int) *Query {
	if index < 0 || index >= len(m.queries) {
		return nil
	}
	return m.queries[index]
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
func (m *MultiEvaluator) NumQueries() int { return m.eng.Len() }

// NumShards returns the shard count (1 until WithShards is called).
func (m *MultiEvaluator) NumShards() int { return m.eng.NumShards() }

// Close releases the shard goroutines (when more than one shard started
// any) and closes the persistence WAL (when enabled).
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
// coordinator writes the batch to the graph and then evaluates it with
// one fan-out to its shards — shard 0 on the calling goroutine — which
// is where the multicore throughput comes from.
func (m *MultiEvaluator) IngestBatch(tuples []Tuple) ([]BatchResult, error) {
	// Validate the whole batch up front — against the stream clock and
	// internally — so a rejected batch leaves no partial engine state.
	c, err := m.fe.admit(m.fe.clock, tuples...)
	if err != nil {
		return nil, fmt.Errorf("streamrpq: %w", err)
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	// A poisoned coordinator may hold a half-applied batch: log nothing
	// more.
	if err := m.eng.Err(); err != nil {
		return nil, fmt.Errorf("streamrpq: %w", err)
	}
	if m.persist != nil {
		if err := m.persist.pendingError(); err != nil {
			return nil, err
		}
	}
	encoded := make([]stream.Tuple, len(tuples))
	for i, t := range tuples {
		encoded[i] = m.fe.encode(t)
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
		if err := m.persist.commitBatch(m, c.last, out); err != nil {
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
	m.fe.clock = clock{last: encoded[len(encoded)-1].TS, started: true}
	m.batches++
	return m.groupResults(results), nil
}

// groupResults folds the coordinator's results into one BatchResult
// per (tuple, query). They arrive in canonical order, so every (tuple,
// query, kind) run is contiguous: the batch is decoded into one slice
// and each run gets its stretch of it, capped at its length so that an
// append to one run copies instead of overwriting the next.
func (m *MultiEvaluator) groupResults(results []shard.Result) []BatchResult {
	sameGroup := func(a, b *shard.Result) bool { return a.Tuple == b.Tuple && a.Query == b.Query }
	groups := 0
	all := make([]Match, len(results))
	for i := range results {
		if i == 0 || !sameGroup(&results[i-1], &results[i]) {
			groups++
		}
		all[i] = m.fe.decode(results[i].Match)
	}
	out := make([]BatchResult, 0, groups)
	for lo := 0; lo < len(results); {
		first := &results[lo]
		hi := lo + 1
		for hi < len(results) && sameGroup(first, &results[hi]) && results[hi].Invalidated == first.Invalidated {
			hi++
		}
		run := all[lo:hi:hi]
		if lo == 0 || !sameGroup(&results[lo-1], first) {
			out = append(out, BatchResult{Tuple: first.Tuple, Query: m.queries[first.Query], QueryIndex: first.Query})
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
// describe the shared window content. Results and Invalidations sum the
// emissions of each live query's group (see shard.Engine.Stats): they
// equal the records delivered only while the query set is static, and
// AddQuery and RemoveQuery can move them either way.
func (m *MultiEvaluator) Stats() Stats { return m.eng.Stats() }

// ShardStats reports, per shard, the aggregated statistics of the
// queries it owns (one entry until WithShards is called).
func (m *MultiEvaluator) ShardStats() []Stats { return m.eng.ShardStats() }
