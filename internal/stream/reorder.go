package stream

import (
	"container/heap"
	"fmt"
	"math"
)

// Reorder is a bounded out-of-order buffer. The paper assumes tuples
// arrive in source-timestamp order and leaves out-of-order delivery as
// future work; Reorder closes that gap at the ingestion boundary with
// the standard slack/watermark approach: tuples are buffered and
// released in timestamp order once the watermark (max seen timestamp
// minus the slack) passes them. A tuple arriving later than the slack
// allows is late and rejected.
//
// With slack 0 the buffer degenerates to strict-order enforcement.
type Reorder struct {
	slack     int64
	watermark int64 // max timestamp seen - slack, saturating at math.MinInt64
	started   bool  // false: no tuple seen, the watermark is unset
	heap      tupleHeap
	late      int64
}

// NewReorder returns a buffer tolerating disorder up to slack time
// units.
func NewReorder(slack int64) *Reorder {
	if slack < 0 {
		slack = 0
	}
	return &Reorder{slack: slack, watermark: math.MinInt64}
}

// ErrLate is returned (wrapped) for tuples older than the watermark.
// A caller that checks lateness before dictionary-encoding the tuple
// (the streamrpq facade) sets only Tuple.TS.
type ErrLate struct {
	Tuple     Tuple
	Watermark int64
}

func (e *ErrLate) Error() string {
	return fmt.Sprintf("stream: late tuple at ts %d behind watermark %d", e.Tuple.TS, e.Watermark)
}

// Offer inserts a tuple and returns the tuples released by the
// advancing watermark, in non-decreasing timestamp order. Tuples with
// equal timestamps are released in arrival order. A late tuple returns
// an *ErrLate and releases nothing.
func (o *Reorder) Offer(t Tuple) ([]Tuple, error) {
	if o.started && t.TS <= o.watermark {
		o.late++
		return nil, &ErrLate{Tuple: t, Watermark: o.watermark}
	}
	heap.Push(&o.heap, tupleEntry{t: t, seq: o.heap.nextSeq()})
	o.started = true
	wm := int64(math.MinInt64) // t.TS - slack, saturating
	if t.TS >= math.MinInt64+o.slack {
		wm = t.TS - o.slack
	}
	if wm > o.watermark {
		o.watermark = wm
	}
	return o.release(), nil
}

// Flush releases every buffered tuple regardless of the watermark
// (end-of-stream) and raises the watermark to the largest timestamp
// released, so a tuple offered afterwards cannot land behind them.
func (o *Reorder) Flush() []Tuple {
	var out []Tuple
	for o.heap.Len() > 0 {
		out = append(out, heap.Pop(&o.heap).(tupleEntry).t)
	}
	if n := len(out); n > 0 && out[n-1].TS > o.watermark {
		o.watermark = out[n-1].TS
	}
	return out
}

// Pending returns the number of buffered tuples.
func (o *Reorder) Pending() int { return o.heap.Len() }

// Late returns the number of rejected late tuples.
func (o *Reorder) Late() int64 { return o.late }

// Watermark returns the current watermark: all released tuples have
// ts ≤ watermark, all future tuples must have ts > watermark. Before the
// first tuple it is math.MinInt64 and binds nothing.
func (o *Reorder) Watermark() int64 { return o.watermark }

func (o *Reorder) release() []Tuple {
	var out []Tuple
	for o.heap.Len() > 0 && o.heap.entries[0].t.TS <= o.watermark {
		out = append(out, heap.Pop(&o.heap).(tupleEntry).t)
	}
	return out
}

type tupleEntry struct {
	t   Tuple
	seq uint64
}

type tupleHeap struct {
	entries []tupleEntry
	seq     uint64
}

func (h *tupleHeap) nextSeq() uint64 { h.seq++; return h.seq }

func (h *tupleHeap) Len() int { return len(h.entries) }

func (h *tupleHeap) Less(i, j int) bool {
	if h.entries[i].t.TS != h.entries[j].t.TS {
		return h.entries[i].t.TS < h.entries[j].t.TS
	}
	return h.entries[i].seq < h.entries[j].seq
}

func (h *tupleHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

func (h *tupleHeap) Push(x any) { h.entries = append(h.entries, x.(tupleEntry)) }

func (h *tupleHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}
