package serve

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"streamrpq"
)

// Record is the wire schema of one line of the NDJSON stream: a match
// or a deletion-triggered invalidation of one query, stamped with its
// sequence position (the resume token), or the stream's final EOF
// record. Field order is the wire order. The broker writes each
// published record's line once (appendResult) and hands the bytes to
// the ring and every subscriber; the JSON tags are the reference the
// appender is tested against.
type Record struct {
	Token       string `json:"token"`
	Batch       uint64 `json:"batch,omitempty"`
	Tuple       int    `json:"tuple"`
	QueryID     int    `json:"queryId"`
	Query       string `json:"query,omitempty"`
	From        string `json:"from,omitempty"`
	To          string `json:"to,omitempty"`
	TS          int64  `json:"ts"`
	Invalidated bool   `json:"invalidated,omitempty"`

	// EOF marks the final record of a stream: the broker shut down or
	// evicted the subscriber. Token then holds the resume position.
	EOF    bool   `json:"eof,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Errors the HTTP layer maps to status codes.
var (
	// ErrShutdown: the broker is draining; no new work is accepted.
	ErrShutdown = errors.New("serve: broker is shut down")
	// ErrGone: the resume position was truncated out of the replay
	// window (or predates this process). The error Subscribe returns
	// names the oldest resumable position (the 410 body's "floor"
	// token): the client re-syncs from that token, accepting the gap,
	// or from the live tail.
	ErrGone = errors.New("serve: resume position is beyond the replay window")
	// ErrFuture: the resume position is ahead of the published stream.
	ErrFuture = errors.New("serve: resume position is in the future")
)

// goneError is ErrGone carrying the replay floor: the oldest position a
// subscription can resume from when the error is returned.
type goneError struct{ floor Seq }

func (e *goneError) Error() string {
	return ErrGone.Error() + "; oldest resumable position is " + e.floor.Token()
}

func (e *goneError) Unwrap() error { return ErrGone }

// subscriber is one attached result stream. The broker is the only
// sender on ch and closes it (under its lock); the HTTP handler is the
// only receiver. ch carries the shared, immutable lines of the
// published entries. final, when set before close, is the stream's
// trailing EOF record.
type subscriber struct {
	ch       chan []byte
	final    *Record
	ids      map[int]bool    // filter by registration index; nil = no id filter
	patterns map[string]bool // filter by pattern source; nil = no pattern filter
	last     Seq             // position of the newest record enqueued
}

// matches reports whether the subscriber's filter admits the entry.
// With no filter at all every entry matches; with filters, an entry
// matches if either its query id or its pattern source is selected.
func (s *subscriber) matches(e *entry) bool {
	if s.ids == nil && s.patterns == nil {
		return true
	}
	return s.ids[e.queryID] || s.patterns[e.query]
}

// Broker serializes access to a MultiEvaluator (which is not
// thread-safe) and fans its deterministic merged result stream out to
// subscribers. All public methods are safe for concurrent use; they
// take one mutex, so batches, registrations and (re)attachments are
// totally ordered — the ordering that makes resume tokens exact.
//
// Publishing never blocks on a subscriber: each subscriber owns a
// bounded buffer, and one that falls behind is evicted with a final
// EOF record naming its resume position. A stalled client therefore
// costs one buffer, never ingest latency.
type Broker struct {
	mu  sync.Mutex
	ev  *streamrpq.MultiEvaluator
	rng *replayRing
	sub map[*subscriber]struct{}
	ids map[*streamrpq.Query]int // registration index per live query

	subBuf int
	closed bool

	// flatten's per-batch scratch, reused under the lock: the entries
	// handed to publish and the buffer the batch's lines are encoded
	// into before they are copied to the batch's own slab.
	pending []entry
	enc     []byte

	// metrics (read via Metrics)
	published uint64
	evictions uint64
	batches   uint64
	tuples    uint64
}

// BrokerConfig sizes the broker's bounded buffers.
type BrokerConfig struct {
	// ReplayWindow is the number of recent records retained for
	// reattachment (default 65536). The ring's backing array never
	// exceeds it: 64 bytes a record, plus the encoded lines of the
	// batches the retained records belong to.
	ReplayWindow int
	// SubscriberBuffer is the per-subscriber live-record buffer
	// (default 1024), counted in records; a slot is a 24-byte reference
	// to a shared line. A reattaching subscriber's buffer is grown by
	// its replay burst, so reattachment within the window never evicts.
	SubscriberBuffer int
}

// NewBroker wraps an evaluator; queries can be added and removed
// between batches (AddQuery, RemoveQuery), except on an evaluator
// recovered from a checkpoint of an older version that kept only its
// queries' labels, which serves with a fixed query set (AddQuery
// errors). The replay floor starts at the evaluator's current batch
// position: a process restart truncates the (in-memory) replay window,
// so tokens from a previous process answer 410 Gone.
func NewBroker(ev *streamrpq.MultiEvaluator, cfg BrokerConfig) (*Broker, error) {
	if cfg.ReplayWindow <= 0 {
		cfg.ReplayWindow = 65536
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 1024
	}
	floor := Seq{}
	if b := ev.AppliedBatches(); b > 0 {
		// Everything up to and including the last applied batch was
		// published (if at all) by a previous process and is gone.
		floor = Seq{Batch: b, Index: ^uint64(0)}
	}
	b := &Broker{
		ev:     ev,
		rng:    newReplayRing(cfg.ReplayWindow, floor),
		sub:    make(map[*subscriber]struct{}),
		ids:    make(map[*streamrpq.Query]int),
		subBuf: cfg.SubscriberBuffer,
	}
	for i, q := range ev.RegisteredQueries() {
		if q != nil {
			b.ids[q] = i
		}
	}
	return b, nil
}

// IngestReply reports one accepted batch.
type IngestReply struct {
	Batch   uint64 `json:"batch"`
	Tuples  int    `json:"tuples"`
	Records int    `json:"records"`
	Token   string `json:"token"` // position of the batch's last record (or the stream tail)
}

// Ingest applies one batch and publishes its records. The error is the
// evaluator's verbatim (out-of-order input, durability failure, or a
// poisoned coordinator), or ErrShutdown while draining.
func (b *Broker) Ingest(tuples []streamrpq.Tuple) (IngestReply, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return IngestReply{}, ErrShutdown
	}
	brs, err := b.ev.IngestBatch(tuples)
	if err != nil {
		return IngestReply{}, err
	}
	b.batches = b.ev.AppliedBatches()
	b.tuples += uint64(len(tuples))
	es := b.flatten(brs, b.batches)
	b.publish(es)
	return IngestReply{
		Batch:   b.batches,
		Tuples:  len(tuples),
		Records: len(es),
		Token:   b.rng.tail().Token(),
	}, nil
}

// flatten turns one batch's grouped results into the entry sequence,
// assigning in-batch ranks in the canonical merge order (tuple, query
// registration index, matches before invalidations), and writes every
// entry's NDJSON line once, into one slab allocated for the batch. The
// returned slice is the broker's scratch, valid until the next call.
// Called with the lock held.
func (b *Broker) flatten(brs []streamrpq.BatchResult, batch uint64) []entry {
	n := 0
	for _, br := range brs {
		n += len(br.Matches) + len(br.Invalidations)
	}
	// Scratch entries past this batch's would keep an older slab alive.
	clear(b.pending[min(n, len(b.pending)):])
	if n == 0 {
		return nil
	}
	es := slices.Grow(b.pending[:0], n)
	enc := b.enc[:0]
	add := func(br *streamrpq.BatchResult, m *streamrpq.Match, inv bool) {
		e := entry{seq: Seq{Batch: batch, Index: uint64(len(es))}, queryID: b.ids[br.Query], query: br.Query.String()}
		enc = appendResult(enc, e.seq, &Record{
			Batch:       batch,
			Tuple:       br.Tuple,
			QueryID:     e.queryID,
			Query:       e.query,
			From:        m.From,
			To:          m.To,
			TS:          m.TS,
			Invalidated: inv,
		})
		es = append(es, e)
	}
	for i := range brs {
		br := &brs[i]
		for j := range br.Matches {
			add(br, &br.Matches[j], false)
		}
		for j := range br.Invalidations {
			add(br, &br.Invalidations[j], true)
		}
	}
	b.pending, b.enc = es, enc
	// Each line's only raw newline is its last byte (see ndjson.go).
	slab := bytes.Clone(enc)
	for i := range es {
		k := bytes.IndexByte(slab, '\n') + 1
		es[i].line, slab = slab[:k:k], slab[k:]
	}
	return es
}

// publish appends to the replay ring and fans the lines out, evicting
// any subscriber whose buffer is full. Called with the lock held.
func (b *Broker) publish(es []entry) {
	if len(es) == 0 {
		return
	}
	b.rng.append(es...)
	b.published += uint64(len(es))
	for s := range b.sub {
	deliver:
		for i := range es {
			e := &es[i]
			if !s.matches(e) {
				continue
			}
			select {
			case s.ch <- e.line:
				s.last = e.seq
			default:
				b.evict(s, "slow consumer")
				break deliver
			}
		}
	}
}

// evict detaches a subscriber with a final EOF record naming its
// resume position. Called with the lock held.
func (b *Broker) evict(s *subscriber, reason string) {
	if _, ok := b.sub[s]; !ok {
		return
	}
	delete(b.sub, s)
	b.evictions++
	s.final = &Record{EOF: true, Token: s.last.Token(), Reason: reason}
	close(s.ch)
}

// Subscribe attaches a result stream. from == nil attaches at the live
// tail; otherwise the retained records strictly after *from (that pass
// the filter) are pre-buffered, giving the byte-identical continuation
// of a stream detached at that position. Returns ErrGone when the
// position was truncated out of the replay window and ErrFuture when
// it is ahead of the published stream; the ErrGone error names the
// oldest resumable position.
func (b *Broker) Subscribe(ids []int, patterns []string, from *Seq) (*subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrShutdown
	}
	s := &subscriber{}
	if ids != nil {
		s.ids = make(map[int]bool, len(ids))
		for _, id := range ids {
			s.ids[id] = true
		}
	}
	if patterns != nil {
		s.patterns = make(map[string]bool, len(patterns))
		for _, p := range patterns {
			s.patterns[p] = true
		}
	}
	var replay []entry
	tail := b.rng.tail()
	s.last = tail
	if from != nil {
		if tail.Less(*from) {
			return nil, ErrFuture
		}
		var ok bool
		if replay, ok = b.rng.since(*from); !ok {
			return nil, &goneError{floor: b.rng.floor}
		}
		replay = slices.DeleteFunc(replay, func(e entry) bool { return !s.matches(&e) })
		s.last = *from
	}
	s.ch = make(chan []byte, len(replay)+b.subBuf)
	for _, e := range replay {
		s.ch <- e.line
		s.last = e.seq
	}
	b.sub[s] = struct{}{}
	return s, nil
}

// Unsubscribe detaches (idempotent; no final record — the caller is
// gone).
func (b *Broker) Unsubscribe(s *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.sub[s]; ok {
		delete(b.sub, s)
		close(s.ch)
	}
}

// AddQuery compiles and registers a query online, between batches (the
// broker's lock serializes it with ingest): its index is bootstrapped
// from the live window before the call returns. Returns the
// registration id. If the registration's checkpoint fails, the query is
// registered and emitting all the same: its id is recorded, so its
// records carry it, and the error is returned.
func (b *Broker) AddQuery(pattern string) (int, error) {
	q, err := streamrpq.Compile(pattern)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrShutdown
	}
	id, err := b.ev.AddQuery(q)
	if b.ev.QueryByIndex(id) == q {
		b.ids[q] = id
	}
	return id, err
}

// RemoveQuery detaches the query with the given registration id.
func (b *Broker) RemoveQuery(id int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrShutdown
	}
	q := b.ev.QueryByIndex(id)
	if q == nil {
		return fmt.Errorf("serve: no query with id %d", id)
	}
	if err := b.ev.RemoveQuery(id); err != nil {
		return err
	}
	delete(b.ids, q)
	return nil
}

// QueryInfo describes one live registration.
type QueryInfo struct {
	ID      int    `json:"id"`
	Pattern string `json:"pattern"`
}

// Queries lists the live registrations in id order.
func (b *Broker) Queries() []QueryInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := []QueryInfo{}
	for i, q := range b.ev.RegisteredQueries() {
		if q != nil {
			out = append(out, QueryInfo{ID: i, Pattern: q.String()})
		}
	}
	return out
}

// Metrics is a point-in-time snapshot of the broker's counters.
type Metrics struct {
	Batches     uint64
	Tuples      uint64
	Published   uint64
	Subscribers int
	Evictions   uint64
	Queries     int
	Edges       int
	Results     int64

	// Multi-query sharing: group layout and the effect of the per-label
	// relevance filter (see core.Stats).
	Groups         int
	SharedGroups   int
	Dispatches     int64
	RelevanceSkips int64
}

// Snapshot returns the current metrics.
func (b *Broker) Snapshot() Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.ev.Stats()
	return Metrics{
		Batches:     b.ev.AppliedBatches(),
		Tuples:      b.tuples,
		Published:   b.published,
		Subscribers: len(b.sub),
		Evictions:   b.evictions,
		Queries:     b.ev.NumQueries(),
		Edges:       st.Edges,
		Results:     st.Results,

		Groups:         st.Groups,
		SharedGroups:   st.SharedGroups,
		Dispatches:     st.Dispatches,
		RelevanceSkips: st.RelevanceSkips,
	}
}

// Healthy reports whether the broker accepts work: not draining and
// the evaluator not poisoned by a shard fault.
func (b *Broker) Healthy() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrShutdown
	}
	return b.ev.Err()
}

// Shutdown drains the broker: in-flight calls finish (they hold the
// lock), every subscriber stream is terminated with a final
// {"eof":true,"token":…} record naming its resume position, a
// checkpoint is taken when persistence is enabled, and all later calls
// return ErrShutdown. Idempotent; returns the checkpoint error, if
// any. The evaluator itself is left open (the owner closes it).
func (b *Broker) Shutdown() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for s := range b.sub {
		delete(b.sub, s)
		s.final = &Record{EOF: true, Token: s.last.Token(), Reason: "shutdown"}
		close(s.ch)
	}
	if b.ev.Persistent() {
		return b.ev.Checkpoint()
	}
	return nil
}
