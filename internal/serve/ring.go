package serve

import "sort"

// entry is one published result as the replay ring holds it: its
// position, the two keys subscriber filters select on, and its encoded
// NDJSON line. The line is a view into its batch's slab and is never
// written after publish, so any number of holders may share it.
type entry struct {
	seq     Seq
	queryID int
	query   string
	line    []byte
}

// replayRing is the bounded in-memory window of recently published
// entries that backs subscriber reattachment: a circular buffer of at
// most cap entries, oldest at head. floor tracks the position of the
// newest entry ever dropped (or, after a process restart, of everything
// published by the previous process), so the broker can distinguish
// "replayable gap" from "gap truncated away" (410 Gone).
//
// This is a deliberate deviation from a WAL-backed replay: reattach
// within the window is exact and cheap, reattach beyond it fails fast
// with Gone and the client re-syncs, and the serving layer never reads
// the persistence directory.
type replayRing struct {
	buf   []entry // backing array; len(buf) ≤ cap
	head  int     // index of the oldest retained entry
	n     int     // retained entries
	cap   int
	floor Seq // every entry at or before this position is unavailable
}

func newReplayRing(capacity int, floor Seq) *replayRing {
	if capacity < 1 {
		capacity = 1
	}
	return &replayRing{cap: capacity, floor: floor}
}

// at returns the i-th oldest retained entry.
func (r *replayRing) at(i int) *entry {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// append adds entries (already in sequence order). Until the ring is
// full the backing array grows by doubling, capped at exactly cap
// entries; a full ring overwrites its oldest slot and advances floor to
// that slot's position. Retained entries are never moved.
func (r *replayRing) append(es ...entry) {
	for _, e := range es {
		if r.n == len(r.buf) && r.n < r.cap {
			r.grow()
		}
		if r.n < len(r.buf) {
			r.n++
			*r.at(r.n - 1) = e
			continue
		}
		r.floor = r.buf[r.head].seq
		r.buf[r.head] = e
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
	}
}

// grow doubles the backing array (at least 16, at most cap entries),
// unrolling the retained entries to start at index 0.
func (r *replayRing) grow() {
	buf := make([]entry, min(max(2*len(r.buf), 16), r.cap))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// since returns the retained entries strictly after from, or ok=false
// when entries in (from, floor] were truncated away. The caller holds
// the broker lock; the positions are monotone, so the start is found by
// binary search. The result is a copy of the entry headers, never a
// view of the ring, whose slots later appends reuse; the lines it
// references are immutable, so a retained replay stays intact.
func (r *replayRing) since(from Seq) (es []entry, ok bool) {
	if from.Less(r.floor) {
		return nil, false
	}
	i := sort.Search(r.n, func(i int) bool { return from.Less(r.at(i).seq) })
	es = make([]entry, r.n-i)
	for j := range es {
		es[j] = *r.at(i + j)
	}
	return es, true
}

// tail returns the position of the newest retained entry, or the floor
// when the ring is empty.
func (r *replayRing) tail() Seq {
	if r.n > 0 {
		return r.at(r.n - 1).seq
	}
	return r.floor
}
