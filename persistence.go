package streamrpq

import (
	"fmt"

	"streamrpq/internal/persist"
	"streamrpq/internal/stream"
)

// Durability for the multi-query evaluator: a write-ahead tuple log
// appended by every IngestBatch plus periodic full-state checkpoints
// (window graph, window clock, dictionaries, every query's Δ index), so
// a crashed engine resumes mid-stream via Recover instead of replaying
// the whole window. See internal/persist for the on-disk formats.
//
// Consistency model: batches are logged before they are processed and a
// commit record is appended immediately before IngestBatch returns the
// results — returning is the delivery point. PR 1 made the engines'
// result streams a pure function of the stream prefix, so recovery can
// re-run the WAL suffix and obtain exactly the results the pre-crash
// process computed: results of committed batches are suppressed (never
// a duplicate) and the results of a trailing uncommitted batch are
// redelivered by Recover. The commit-to-return window means delivery
// to the caller is at-most-once under kill -9 — the usual exactly-once
// boundary of a sink outside the commit transaction (see README,
// "Durability & recovery"). Checkpoints are taken between batches —
// the engine's only globally consistent points.

// PersistOption configures persistence behaviour for WithPersistence
// and Recover.
type PersistOption func(*persistConfig)

type persistConfig struct {
	fsync bool
	every int
}

// CheckpointEvery makes the evaluator take a checkpoint automatically
// after every n ingested batches (in addition to manual Checkpoint
// calls). n <= 0 disables automatic checkpoints (the default).
func CheckpointEvery(n int) PersistOption {
	return func(c *persistConfig) { c.every = n }
}

// WithFsync fsyncs every WAL append and snapshot write. Off by default:
// without it the data survives a process crash but not necessarily an
// OS crash or power failure.
func WithFsync() PersistOption {
	return func(c *persistConfig) { c.fsync = true }
}

// persistState is the facade-side persistence bookkeeping attached to a
// MultiEvaluator.
type persistState struct {
	mgr   *persist.Manager
	cfg   persistConfig
	vMark int // dictionary lengths already covered by the WAL/snapshot
	lMark int

	appliedTuples  int64
	appliedBatches uint64
	batchesSince   int

	// deferred holds a durability failure (commit append or automatic
	// checkpoint) that happened after a batch was applied and its
	// results became returnable: those results must still reach the
	// caller — losing them, or provoking a double-applying retry, would
	// violate the delivery contract — so the error surfaces on the next
	// call instead, before any state is touched.
	deferred error
	// pendingCommit is a commit record whose append failed; it is
	// retried before the next WAL append (and rendered moot by a
	// successful checkpoint, which supersedes the whole segment). Until
	// it lands, a crash degrades that batch to at-least-once: recovery
	// would redeliver results the caller already has.
	pendingCommit *pendingCommit
}

type pendingCommit struct {
	lastTS  int64
	results int64
}

// WithPersistence enables durability: dir is initialized as a fresh
// persistence directory (it must not already contain persisted state —
// resume from existing state with Recover), an initial checkpoint of
// the empty evaluator is written, and every subsequent IngestBatch or
// Ingest call is logged before it is processed. Call after WithShards
// and before the first tuple.
func (m *MultiEvaluator) WithPersistence(dir string, opts ...PersistOption) error {
	if m.fe.clock.started {
		return fmt.Errorf("streamrpq: WithPersistence after processing started")
	}
	if m.persist != nil {
		return fmt.Errorf("streamrpq: persistence already enabled")
	}
	var cfg persistConfig
	for _, o := range opts {
		o(&cfg)
	}
	mgr, err := persist.Create(dir, persist.Options{Fsync: cfg.fsync})
	if err != nil {
		return err
	}
	p := &persistState{mgr: mgr, cfg: cfg}
	m.persist = p
	// The generation-0 checkpoint records the evaluator metadata (spec,
	// queries, shard count) with the empty state, so recovery always has
	// a snapshot to start from — falling back to it means a cold replay
	// of the full WAL.
	if err := m.Checkpoint(); err != nil {
		m.persist = nil
		mgr.Close()
		return err
	}
	return nil
}

// Checkpoint writes a full-state snapshot and starts a fresh WAL
// generation. Call between IngestBatch calls only. Recovery loads the
// latest valid checkpoint and replays only the WAL written after it,
// which is what makes restart cost proportional to the checkpoint
// interval instead of the window size.
func (m *MultiEvaluator) Checkpoint() error {
	p := m.persist
	if p == nil {
		return fmt.Errorf("streamrpq: Checkpoint without WithPersistence")
	}
	snap := &persist.Snapshot{
		Spec:           m.spec,
		Sharded:        m.NumShards() > 1,
		Shards:         m.NumShards(),
		Sharing:        true, // format v4 keeps the byte; Recover ignores it
		Vertices:       m.fe.vertices.Names(),
		Labels:         m.fe.labels.Names(),
		LastTS:         m.fe.clock.last,
		Started:        m.fe.clock.started,
		AppliedTuples:  p.appliedTuples,
		AppliedBatches: p.appliedBatches,
	}
	for _, member := range m.queries {
		if member.removed {
			continue // tombstones compact away; recovery renumbers live queries
		}
		snap.Queries = append(snap.Queries, member.query.String())
	}
	snap.State = m.eng.SnapshotState()
	if err := p.mgr.WriteSnapshot(snap); err != nil {
		return err
	}
	// A successful checkpoint supersedes the old WAL segment entirely —
	// recovery starts here — so a commit append still pending for that
	// segment is moot.
	p.pendingCommit = nil
	p.vMark = m.fe.vertices.Len()
	p.lMark = m.fe.labels.Len()
	p.batchesSince = 0
	return nil
}

// AppliedTuples returns the number of tuples ingested since stream
// start, as tracked by the persistence layer (0 without persistence).
// After Recover it counts the replayed WAL suffix too, which is what a
// resuming driver uses to skip the already-applied prefix of its input.
func (m *MultiEvaluator) AppliedTuples() int64 {
	if m.persist == nil {
		return 0
	}
	return m.persist.appliedTuples
}

// appendBatch logs one encoded batch (write-ahead: before processing),
// including the dictionary names interned while encoding it. A commit
// append deferred by an earlier failure is flushed first. When no WAL
// segment is open — a failed checkpoint closes the old segment before
// the new one exists — a fresh checkpoint is taken to repair the
// directory (we are between batches here, a consistent point) and the
// append retried once, so ingestion self-heals once the underlying
// fault clears instead of wedging until a manual Checkpoint.
func (p *persistState) appendBatch(m *MultiEvaluator, encoded []stream.Tuple) error {
	// repair attempts a fresh checkpoint, which both reopens the WAL (a
	// new segment) and supersedes any pending commit; on failure the
	// original error is what the caller should see.
	repair := func(orig error) error {
		if ckErr := m.Checkpoint(); ckErr != nil {
			return orig
		}
		return nil
	}
	if err := p.flushPendingCommit(); err != nil {
		if err := repair(err); err != nil {
			return err
		}
	}
	try := func() error {
		vdelta := m.fe.vertices.Names()[p.vMark:]
		ldelta := m.fe.labels.Names()[p.lMark:]
		if err := p.mgr.AppendBatch(vdelta, ldelta, encoded); err != nil {
			return err
		}
		p.vMark = m.fe.vertices.Len()
		p.lMark = m.fe.labels.Len()
		p.appliedTuples += int64(len(encoded))
		p.appliedBatches++
		return nil
	}
	err := try()
	if err == nil {
		return nil
	}
	if err := repair(err); err != nil {
		return err
	}
	return try()
}

// commitBatch marks the batch's results as delivered and takes an
// automatic checkpoint when one is due. Durability failures are NOT
// returned here: the batch is already applied and its results are
// about to be handed to the caller, so an error return would either
// lose them (continuing acknowledges them at the next commit) or
// double-apply them (the natural retry re-ingests the batch). Instead
// a failed commit append is remembered and retried before the next WAL
// append, a failed automatic checkpoint retries at the next batch
// (batchesSince only resets on success), and either failure surfaces
// on the next call via pendingError.
func (p *persistState) commitBatch(m *MultiEvaluator, lastTS int64, out []BatchResult) error {
	var results int64
	for _, br := range out {
		results += int64(len(br.Matches))
	}
	if err := p.mgr.AppendCommit(lastTS, results); err != nil {
		p.pendingCommit = &pendingCommit{lastTS: lastTS, results: results}
		p.deferred = fmt.Errorf("streamrpq: commit append failed (results of the previous batch were delivered; until the commit is retried a crash redelivers them): %w", err)
		return nil
	}
	p.batchesSince++
	if p.cfg.every > 0 && p.batchesSince >= p.cfg.every {
		if err := m.Checkpoint(); err != nil {
			p.deferred = fmt.Errorf("streamrpq: automatic checkpoint failed (results of the previous batch were delivered): %w", err)
		}
	}
	return nil
}

// flushPendingCommit retries a commit append that previously failed.
// It must succeed before another batch record may be appended (the
// commit-acknowledges-all-since-previous-commit pairing would otherwise
// ack the new batch prematurely).
func (p *persistState) flushPendingCommit() error {
	if p.pendingCommit == nil {
		return nil
	}
	if err := p.mgr.AppendCommit(p.pendingCommit.lastTS, p.pendingCommit.results); err != nil {
		return fmt.Errorf("streamrpq: retrying deferred commit append: %w", err)
	}
	p.pendingCommit = nil
	return nil
}

// pendingError reports and clears a deferred checkpoint failure. Called
// at the top of the next ingestion, before any state is touched, so the
// rejected batch can simply be retried.
func (p *persistState) pendingError() error {
	err := p.deferred
	p.deferred = nil
	return err
}

// Recover rebuilds a persisted MultiEvaluator from dir: it loads the
// latest valid checkpoint (falling back past corrupt or truncated
// snapshot files), restores the window graph, dictionaries and every
// query's Δ index, then replays the WAL suffix written after the
// checkpoint. Results of batches whose commit record made it to disk
// are suppressed — the pre-crash process already delivered them — and
// the results of a trailing uncommitted batch are returned as
// redelivered (their Tuple indexes are relative to that batch). The
// returned evaluator continues exactly where the crashed one stopped:
// on append-only streams the concatenation of pre-crash results,
// redelivered results and post-recovery results is identical to an
// uninterrupted run.
//
// The checkpoint carries the shard count, and the evaluator comes back
// with it; a recovered evaluator — persistent already — refuses every
// With* reconfiguration. A checkpoint written by an older version whose
// graph kept only its queries' labels recovers with registration
// closed: AddQuery fails, since a new query would start from part of
// the window.
func Recover(dir string, opts ...PersistOption) (*MultiEvaluator, []BatchResult, error) {
	var cfg persistConfig
	for _, o := range opts {
		o(&cfg)
	}
	mgr, snap, err := persist.Open(dir, persist.Options{Fsync: cfg.fsync})
	if err != nil {
		return nil, nil, err
	}
	m, err := rebuildFromSnapshot(snap)
	if err != nil {
		mgr.Close()
		return nil, nil, err
	}
	p := &persistState{
		mgr:            mgr,
		cfg:            cfg,
		vMark:          m.fe.vertices.Len(),
		lMark:          m.fe.labels.Len(),
		appliedTuples:  snap.AppliedTuples,
		appliedBatches: snap.AppliedBatches,
	}

	// Replay the WAL suffix. A commit record acknowledges every batch
	// applied before it (the facade appends one per batch, so normally
	// the unacked list holds at most one batch); whatever is still
	// unacknowledged at the end of the log was never delivered and is
	// redelivered by this call.
	var unacked []BatchResult
	var unackedBatches int
	var lastTS int64
	err = mgr.Replay(func(rec *persist.WalRecord) error {
		if !rec.Batch {
			unacked, unackedBatches = nil, 0
			return nil
		}
		for _, name := range rec.VDelta {
			m.fe.vertices.ID(name)
		}
		for _, name := range rec.LDelta {
			m.fe.labels.ID(name)
		}
		out, err := m.ingestEncoded(rec.Tuples)
		if err != nil {
			return err
		}
		p.appliedTuples += int64(len(rec.Tuples))
		p.appliedBatches++
		p.vMark, p.lMark = m.fe.vertices.Len(), m.fe.labels.Len()
		unacked = append(unacked, out...)
		unackedBatches++
		if n := len(rec.Tuples); n > 0 {
			lastTS = rec.Tuples[n-1].TS
		}
		return nil
	})
	if err != nil {
		m.Close()
		mgr.Close()
		return nil, nil, err
	}
	if unackedBatches > 0 {
		// Acknowledge what this call is about to return: without the
		// commit record, a second crash before the next batch would make
		// the next Recover redeliver these results a second time.
		var results int64
		for _, br := range unacked {
			results += int64(len(br.Matches))
		}
		if err := mgr.AppendCommit(lastTS, results); err != nil {
			m.Close()
			mgr.Close()
			return nil, nil, err
		}
	}
	m.persist = p
	return m, unacked, nil
}

// rebuildFromSnapshot reconstructs the evaluator a snapshot describes:
// an empty evaluator loads both dictionaries, every query is recompiled
// and bound against the loaded label space, the evaluator re-shards, and
// the engine state is restored. Binding a query against a wider label
// space than it was first bound against is emission-equivalent: the
// extra labels have no transitions, and the Δ-index group fingerprint
// ignores trailing label width.
func rebuildFromSnapshot(snap *persist.Snapshot) (*MultiEvaluator, error) {
	m, err := NewMultiEvaluator(snap.Spec.Size, snap.Spec.Slide)
	if err != nil {
		return nil, err
	}
	if err := m.fe.labels.Load(snap.Labels); err != nil {
		return nil, fmt.Errorf("streamrpq: recover: label dictionary: %w", err)
	}
	if err := m.fe.vertices.Load(snap.Vertices); err != nil {
		return nil, fmt.Errorf("streamrpq: recover: vertex dictionary: %w", err)
	}
	for i, src := range snap.Queries {
		q, err := Compile(src)
		if err != nil {
			return nil, fmt.Errorf("streamrpq: recover: recompiling query %d (%q): %w", i, src, err)
		}
		if err := m.addQuery(q); err != nil {
			return nil, err
		}
	}
	// The snapshot's query→group mapping is restored verbatim, so its
	// sharing byte is not read: queries registered after recovery join
	// equivalent groups like any other.
	// Only the shard count is read; the Sharded byte the format keeps is
	// written as Shards > 1. The state is shard-count-free.
	if snap.Shards > 1 {
		if err := m.WithShards(snap.Shards); err != nil {
			return nil, err
		}
	}
	if err := m.eng.RestoreState(snap.State); err != nil {
		m.Close()
		return nil, fmt.Errorf("streamrpq: recover: %w", err)
	}
	m.fe.clock = clock{last: snap.LastTS, started: snap.Started}
	return m, nil
}
