package stream

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkT(ts int64, src VertexID) Tuple {
	return Tuple{TS: ts, Src: src, Dst: src + 1, Label: 0}
}

func TestReorderInOrderPassThrough(t *testing.T) {
	o := NewReorder(0)
	for ts := int64(1); ts <= 5; ts++ {
		out, err := o.Offer(mkT(ts, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].TS != ts {
			t.Fatalf("ts %d: released %v", ts, out)
		}
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d", o.Pending())
	}
}

func TestReorderBuffersWithinSlack(t *testing.T) {
	o := NewReorder(5)
	out, err := o.Offer(mkT(10, 1))
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v; nothing should be released before the watermark passes", out, err)
	}
	// Out-of-order tuple within slack.
	out, err = o.Offer(mkT(7, 2))
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// Advancing to ts=13 moves the watermark to 8, releasing 7 only.
	out, err = o.Offer(mkT(13, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].TS != 7 || out[1].TS != 8 {
		// watermark = 8: releases ts 7 and... ts 8 does not exist;
		// recompute: buffered {10, 7, 13}, watermark 8 releases only 7.
		if len(out) != 1 || out[0].TS != 7 {
			t.Fatalf("released %v, want [ts=7]", out)
		}
	}
	// Flush drains the rest in order.
	rest := o.Flush()
	if len(rest) != 2 || rest[0].TS != 10 || rest[1].TS != 13 {
		t.Fatalf("flush = %v", rest)
	}
	// Flush released ts 13, so the watermark stands there: a tuple still
	// within slack of the maximum must not be released behind it.
	if o.Watermark() != 13 {
		t.Fatalf("watermark after flush = %d, want 13", o.Watermark())
	}
	var late *ErrLate
	if out, err := o.Offer(mkT(11, 4)); !errors.As(err, &late) {
		t.Fatalf("ts 11 after flushing ts 13: out=%v err=%v, want ErrLate", out, err)
	}
	if out, err := o.Offer(mkT(14, 5)); err != nil || len(out) != 0 || o.Pending() != 1 {
		t.Fatalf("ts 14 after flush: out=%v err=%v pending=%d", out, err, o.Pending())
	}
}

func TestReorderLateRejected(t *testing.T) {
	o := NewReorder(3)
	o.Offer(mkT(10, 1)) // watermark 7
	_, err := o.Offer(mkT(6, 2))
	var late *ErrLate
	if !errors.As(err, &late) {
		t.Fatalf("err = %v, want ErrLate", err)
	}
	if late.Watermark != 7 {
		t.Fatalf("watermark in error = %d", late.Watermark)
	}
	if o.Late() != 1 {
		t.Fatalf("Late() = %d", o.Late())
	}
	// Exactly-at-watermark is late too (released region is ts ≤ wm).
	if _, err := o.Offer(mkT(7, 3)); err == nil {
		t.Fatal("tuple at watermark accepted")
	}
}

func TestReorderStableForEqualTimestamps(t *testing.T) {
	o := NewReorder(4)
	o.Offer(Tuple{TS: 5, Src: 1})
	o.Offer(Tuple{TS: 5, Src: 2})
	o.Offer(Tuple{TS: 5, Src: 3})
	out, _ := o.Offer(Tuple{TS: 20, Src: 9})
	if len(out) != 3 {
		t.Fatalf("released %d tuples", len(out))
	}
	for i, want := range []VertexID{1, 2, 3} {
		if out[i].Src != want {
			t.Fatalf("release order %v, want arrival order", out)
		}
	}
}

// TestReorderProperty: for any input sequence with bounded disorder,
// the released sequence (plus flush) is a sorted permutation of the
// accepted tuples.
func TestReorderProperty(t *testing.T) {
	f := func(deltas []int8, slackSel uint8) bool {
		slack := int64(slackSel % 16)
		o := NewReorder(slack)
		var accepted, released []Tuple
		ts := int64(100)
		for i, d := range deltas {
			ts += int64(d % 8) // may go backwards
			tu := Tuple{TS: ts, Src: VertexID(i)}
			out, err := o.Offer(tu)
			if err == nil {
				accepted = append(accepted, tu)
			}
			released = append(released, out...)
		}
		released = append(released, o.Flush()...)
		if len(released) != len(accepted) {
			return false
		}
		// Released sequence must be sorted.
		for i := 1; i < len(released); i++ {
			if released[i].TS < released[i-1].TS {
				return false
			}
		}
		// And be a permutation of accepted (multiset compare by Src,
		// which is unique per tuple here).
		seen := map[VertexID]bool{}
		for _, tu := range released {
			if seen[tu.Src] {
				return false
			}
			seen[tu.Src] = true
		}
		for _, tu := range accepted {
			if !seen[tu.Src] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReorderNegativeSlack(t *testing.T) {
	o := NewReorder(-5)
	if out, err := o.Offer(mkT(1, 1)); err != nil || len(out) != 1 {
		t.Fatalf("negative slack should behave as zero: out=%v err=%v", out, err)
	}
}
