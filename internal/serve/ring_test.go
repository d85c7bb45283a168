package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"streamrpq"
)

func mkEntry(batch, index uint64) entry {
	s := Seq{Batch: batch, Index: index}
	rec := Record{Batch: batch, QueryID: int(index % 3), Query: "q", TS: int64(index)}
	return entry{seq: s, queryID: rec.QueryID, query: rec.Query, line: appendResult(nil, s, &rec)}
}

// lineSeq parses the resume position out of a published line.
func lineSeq(t testing.TB, line []byte) Seq {
	t.Helper()
	var rec struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	s, err := ParseToken(rec.Token)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplayRingModel checks the circular ring against a plain-slice
// reference (everything ever appended; the ring must hold its last cap
// entries): random batch sizes, batches larger than the capacity,
// capacity 1, and a restart floor. After every append it compares the
// retained entries, the floor, the tail and the answer of since at
// every retained position, at the floor and below it, and asserts the
// backing array never exceeds the capacity. Replays taken at every step
// must survive every later append unchanged: slots are reused, the
// copies and the lines they reference are not.
func TestReplayRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, capacity := range []int{1, 2, 3, 7, 16, 17, 100} {
		for _, restart := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap=%d/restart=%v", capacity, restart), func(t *testing.T) {
				floor0, batch := Seq{}, uint64(0)
				if restart {
					floor0, batch = Seq{Batch: 5, Index: ^uint64(0)}, 5
				}
				r := newReplayRing(capacity, floor0)
				var all []entry // the reference: every entry appended, in order
				type held struct {
					got, want []entry
				}
				var replays []held
				for step := 0; step < 150; step++ {
					batch++
					es := make([]entry, rng.Intn(2*capacity+2))
					for i := range es {
						es[i] = mkEntry(batch, uint64(i))
					}
					r.append(es...)
					all = append(all, es...)

					dropped := max(len(all)-capacity, 0)
					retained, floor := all[dropped:], floor0
					if dropped > 0 {
						floor = all[dropped-1].seq
					}
					if cap(r.buf) > capacity {
						t.Fatalf("step %d: backing array holds %d slots for capacity %d", step, cap(r.buf), capacity)
					}
					if r.floor != floor {
						t.Fatalf("step %d: floor %v, want %v", step, r.floor, floor)
					}
					if r.n != len(retained) {
						t.Fatalf("step %d: %d retained, want %d", step, r.n, len(retained))
					}
					for i, e := range retained {
						if got := r.at(i); got.seq != e.seq || string(got.line) != string(e.line) {
							t.Fatalf("step %d: retained entry %d is %v, want %v", step, i, got.seq, e.seq)
						}
					}
					tail := floor
					if len(retained) > 0 {
						tail = retained[len(retained)-1].seq
					}
					if r.tail() != tail {
						t.Fatalf("step %d: tail %v, want %v", step, r.tail(), tail)
					}

					// since at every retained position, the floor, and below it.
					froms := []Seq{{}, floor, {Batch: batch, Index: ^uint64(0)}}
					for i := max(dropped-2, 0); i < len(all); i++ {
						froms = append(froms, all[i].seq)
					}
					for _, from := range froms {
						got, ok := r.since(from)
						if from.Less(floor) {
							if ok {
								t.Fatalf("step %d: since(%v) below floor %v answered a replay", step, from, floor)
							}
							continue
						}
						var want []entry
						for _, e := range retained {
							if from.Less(e.seq) {
								want = append(want, e)
							}
						}
						if !ok || !sameEntries(got, want) {
							t.Fatalf("step %d: since(%v) = %d entries ok=%v, want %d", step, from, len(got), ok, len(want))
						}
					}
					got, _ := r.since(floor)
					replays = append(replays, held{got, append([]entry(nil), retained...)})
				}
				for i, h := range replays {
					if !sameEntries(h.got, h.want) {
						t.Fatalf("replay taken at step %d changed under later appends", i)
					}
				}
			})
		}
	}
}

func sameEntries(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].seq != b[i].seq || a[i].queryID != b[i].queryID || a[i].query != b[i].query || string(a[i].line) != string(b[i].line) {
			return false
		}
	}
	return true
}

// TestReplayRingSinceCopies is the aliasing regression for the
// eviction boundary: a replay slice obtained from since must survive
// later appends that evict — a full ring overwrites its oldest slots in
// place, so a since that returned a view of the ring would see its
// entries silently overwritten with newer ones (a truncated stream
// wearing valid tokens).
func TestReplayRingSinceCopies(t *testing.T) {
	r := newReplayRing(8, Seq{})
	for i := uint64(0); i < 8; i++ {
		r.append(mkEntry(1, i))
	}
	replay, ok := r.since(Seq{Batch: 1, Index: 3})
	if !ok || len(replay) != 4 {
		t.Fatalf("since = %d entries, ok=%v; want 4, true", len(replay), ok)
	}
	// Evict aggressively: overwrite every slot twice over.
	for i := uint64(0); i < 16; i++ {
		r.append(mkEntry(2, i))
	}
	for i, e := range replay {
		want := Seq{Batch: 1, Index: uint64(4 + i)}
		if e.seq != want || lineSeq(t, e.line) != want {
			t.Fatalf("retained replay entry %d mutated by eviction: seq %v, want %v", i, e.seq, want)
		}
	}
}

// TestReplayRingGoneAtBoundary: tokens below the eviction floor answer
// ok=false (410 Gone), tokens at or above it replay exactly the
// retained suffix — the boundary is never off by one in either
// direction.
func TestReplayRingGoneAtBoundary(t *testing.T) {
	r := newReplayRing(4, Seq{})
	for i := uint64(0); i < 10; i++ {
		r.append(mkEntry(1, i))
	}
	// Capacity 4: entries 0..5 evicted, floor = (1,5), retained 6..9.
	if _, ok := r.since(Seq{Batch: 1, Index: 4}); ok {
		t.Fatal("token below the floor answered a replay")
	}
	es, ok := r.since(Seq{Batch: 1, Index: 5})
	if !ok || len(es) != 4 {
		t.Fatalf("token at the floor: %d entries, ok=%v; want the full retained window (4, true)", len(es), ok)
	}
	es, ok = r.since(Seq{Batch: 1, Index: 8})
	if !ok || len(es) != 1 || es[0].seq != (Seq{Batch: 1, Index: 9}) {
		t.Fatalf("token inside the window: %d entries ok=%v, want exactly the final entry", len(es), ok)
	}
	es, ok = r.since(Seq{Batch: 1, Index: 9})
	if !ok || len(es) != 0 {
		t.Fatalf("token at the tail: %d entries, ok=%v; want empty replay, true", len(es), ok)
	}
}

// TestSubscribeEvictionRace races reattachment against ring eviction
// under -race: one goroutine ingests batches through a broker with a
// replay window smaller than three batches while the consumer
// repeatedly detaches and reattaches with its last token. Every
// successful reattach must continue the stream exactly contiguously —
// a token whose record was evicted between checks must answer ErrGone,
// never a silently truncated stream.
func TestSubscribeEvictionRace(t *testing.T) {
	ev, err := streamrpq.NewMultiEvaluator(1<<30, 1<<29, streamrpq.MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	b, err := NewBroker(ev, BrokerConfig{ReplayWindow: 7, SubscriberBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()

	const nBatches, perBatch = 200, 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		n := 0
		for i := 0; i < nBatches; i++ {
			var tup []streamrpq.Tuple
			for j := 0; j < perBatch; j++ {
				n++
				// Unique vertices: each a-edge is exactly one match, so
				// tokens are dense — (b, 0..perBatch-1) for every batch —
				// and the successor of any position is computable.
				tup = append(tup, streamrpq.Tuple{TS: int64(i + 1), Src: fmt.Sprintf("s%d", n), Dst: fmt.Sprintf("d%d", n), Label: "a"})
			}
			if _, err := b.Ingest(tup); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()

	succ := func(s Seq) Seq {
		if s.Index+1 < perBatch {
			return Seq{Batch: s.Batch, Index: s.Index + 1}
		}
		return Seq{Batch: s.Batch + 1, Index: 0}
	}
	finalSeq := Seq{Batch: nBatches, Index: perBatch - 1}
	// Start just before (1,0), the first record's position: batch
	// numbering starts at 1, so the zero batch's last slot is the
	// position whose successor is the stream's first record.
	from := Seq{Batch: 0, Index: perBatch - 1}
	haveFrom := true // false after a Gone re-sync at the live tail
	var expect *Seq  // seq the next record must carry, nil after re-sync
	gone, attaches := 0, 0
	for {
		finished := false
		select {
		case <-stop:
			finished = true
		default:
		}
		var fromPtr *Seq
		if haveFrom {
			f := from
			fromPtr = &f
			e := succ(from)
			expect = &e
		} else {
			expect = nil // live-tail attach: accept whatever comes first
		}
		sub, err := b.Subscribe(nil, nil, fromPtr)
		attaches++
		switch {
		case errors.Is(err, ErrGone):
			// The replay window moved past our position: the documented
			// re-sync outcome. Never a truncated replay.
			gone++
			haveFrom = false
			if finished {
				wg.Wait()
				t.Logf("attaches=%d gone=%d (ended by eviction)", attaches, gone)
				return
			}
			continue
		case errors.Is(err, ErrFuture):
			// Attached ahead of the published stream (the ingester has
			// not produced our successor yet): retry.
			if finished {
				wg.Wait()
				return
			}
			continue
		case err != nil:
			t.Fatalf("subscribe from %v: %v", fromPtr, err)
		}
	drain:
		for i := 0; i < 64; i++ {
			select {
			case line, open := <-sub.ch:
				if !open {
					break drain // evicted as a slow consumer; reattach
				}
				seq := lineSeq(t, line)
				if expect != nil && seq != *expect {
					t.Fatalf("gap after reattach at %v: got %v, want %v", from, seq, *expect)
				}
				e := succ(seq)
				expect = &e
				from, haveFrom = seq, true
			default:
				break drain // buffer momentarily empty; reattach
			}
		}
		b.Unsubscribe(sub)
		if haveFrom && from == finalSeq {
			wg.Wait()
			t.Logf("attaches=%d gone=%d (consumed to the tail)", attaches, gone)
			return
		}
		if finished && !haveFrom {
			// Re-synced at the tail after the stream ended: nothing more
			// will arrive.
			wg.Wait()
			t.Logf("attaches=%d gone=%d (re-synced past the end)", attaches, gone)
			return
		}
	}
}

// TestSubscribeGoneDeterministic pins the broker-level boundary
// without any concurrency: after the window slides past a token,
// Subscribe answers ErrGone; a token still inside the window replays
// contiguously to the tail.
func TestSubscribeGoneDeterministic(t *testing.T) {
	ev, err := streamrpq.NewMultiEvaluator(1<<30, 1<<29, streamrpq.MustCompile("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	b, err := NewBroker(ev, BrokerConfig{ReplayWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	for i := 0; i < 10; i++ {
		if _, err := b.Ingest([]streamrpq.Tuple{
			{TS: int64(i + 1), Src: fmt.Sprintf("s%d", i), Dst: fmt.Sprintf("d%d", i), Label: "a"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One record per batch; window 4 retains batches 7..10.
	if _, err := b.Subscribe(nil, nil, &Seq{Batch: 2, Index: 0}); !errors.Is(err, ErrGone) {
		t.Fatalf("evicted token: err = %v, want ErrGone", err)
	}
	sub, err := b.Subscribe(nil, nil, &Seq{Batch: 7, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Unsubscribe(sub)
	for want := uint64(8); want <= 10; want++ {
		if seq := lineSeq(t, <-sub.ch); seq != (Seq{Batch: want, Index: 0}) {
			t.Fatalf("replay out of order: %v, want batch %d", seq, want)
		}
	}
	if _, err := b.Subscribe(nil, nil, &Seq{Batch: 11, Index: 0}); !errors.Is(err, ErrFuture) {
		t.Fatalf("future token: err = %v, want ErrFuture", err)
	}
}

// publishInput is one batch's results for the publish-cost tests: n
// matches of query q on one tuple.
func publishInput(q *streamrpq.Query, n int) []streamrpq.BatchResult {
	ms := make([]streamrpq.Match, n)
	for i := range ms {
		ms[i] = streamrpq.Match{From: fmt.Sprintf("v%d", i), To: fmt.Sprintf("v%d", i+1), TS: int64(i)}
	}
	return []streamrpq.BatchResult{{Tuple: 3, Query: q, Matches: ms}}
}

// newPublishBroker returns a broker with the default 65 536-record
// replay window, prefilled with fill records.
func newPublishBroker(t testing.TB, fill int) (*Broker, *streamrpq.Query) {
	t.Helper()
	q := streamrpq.MustCompile("a/b")
	ev, err := streamrpq.NewMultiEvaluator(1000, 100, q)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ev.Close() })
	b, err := NewBroker(ev, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := publishInput(q, 64)
	for b.rng.n < fill {
		b.batches++
		b.publish(b.flatten(in, b.batches))
	}
	return b, q
}

// TestBrokerPublishAllocs: publishing a batch costs a constant number
// of allocations, whatever its size and however full the replay ring —
// one slab per batch, nothing per record, nothing per retained record.
func TestBrokerPublishAllocs(t *testing.T) {
	var first float64
	for _, fill := range []int{0, 65536} {
		for _, per := range []int{1, 64} {
			b, q := newPublishBroker(t, fill)
			in := publishInput(q, per)
			allocs := testing.AllocsPerRun(100, func() {
				b.batches++
				b.publish(b.flatten(in, b.batches))
			})
			t.Logf("ring fill %d, %d records a batch: %v allocs a batch", fill, per, allocs)
			if fill == 0 && per == 1 {
				first = allocs
			} else if allocs != first {
				t.Fatalf("ring fill %d, %d records a batch: %v allocs a batch, want %v (1 record into an empty ring)", fill, per, allocs, first)
			}
		}
	}
}

// BenchmarkBrokerPublish: flatten+publish of a 64-record batch into an
// empty and into a full default-size replay ring.
func BenchmarkBrokerPublish(b *testing.B) {
	for _, fill := range []int{0, 65536} {
		b.Run(fmt.Sprintf("ring=%d", fill), func(b *testing.B) {
			br, q := newPublishBroker(b, fill)
			in := publishInput(q, 64)
			b.ReportAllocs()
			for b.Loop() {
				if fill == 0 {
					br.rng = newReplayRing(65536, Seq{})
				}
				br.batches++
				br.publish(br.flatten(in, br.batches))
			}
		})
	}
}
