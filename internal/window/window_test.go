package window

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Size: 10, Slide: 1}, true},
		{Spec{Size: 10, Slide: 10}, true},
		{Spec{Size: 0, Slide: 1}, false},
		{Spec{Size: -5, Slide: 1}, false},
		{Spec{Size: 10, Slide: 0}, false},
		{Spec{Size: 10, Slide: -1}, false},
		{Spec{Size: 10, Slide: 11}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestObserveEagerSlide(t *testing.T) {
	m := NewManager(Spec{Size: 15, Slide: 1})
	// First observation establishes the boundary, no expiry.
	if _, due := m.Observe(4); due {
		t.Fatal("first observation should not trigger expiry")
	}
	// Same boundary: no expiry.
	if _, due := m.Observe(4); due {
		t.Fatal("same timestamp should not trigger expiry")
	}
	// Crossing to 6 must expire to 6-15 = -9.
	deadline, due := m.Observe(6)
	if !due || deadline != -9 {
		t.Fatalf("Observe(6) = %d,%v, want -9,true", deadline, due)
	}
	deadline, due = m.Observe(19)
	if !due || deadline != 4 {
		t.Fatalf("Observe(19) = %d,%v, want 4,true", deadline, due)
	}
}

func TestObserveLazySlide(t *testing.T) {
	m := NewManager(Spec{Size: 30, Slide: 10})
	m.Observe(5) // boundary 0
	if _, due := m.Observe(9); due {
		t.Fatal("no boundary crossed below 10")
	}
	deadline, due := m.Observe(10)
	if !due || deadline != -20 {
		t.Fatalf("Observe(10) = %d,%v, want -20,true", deadline, due)
	}
	if _, due := m.Observe(19); due {
		t.Fatal("within slide interval")
	}
	// Jumping several boundaries at once yields a single expiry with
	// the latest deadline.
	deadline, due = m.Observe(45)
	if !due || deadline != 10 {
		t.Fatalf("Observe(45) = %d,%v, want 10,true", deadline, due)
	}
	if m.Boundary() != 40 {
		t.Fatalf("Boundary = %d, want 40", m.Boundary())
	}
}

func TestValidFrom(t *testing.T) {
	s := Spec{Size: 15, Slide: 1}
	if got := s.ValidFrom(18); got != 3 {
		t.Fatalf("ValidFrom(18) = %d, want 3", got)
	}
}

// TestBoundsSaturate: near math.MinInt64 the window bounds clamp to it
// instead of wrapping around to huge positive values that would expire
// everything.
func TestBoundsSaturate(t *testing.T) {
	s := Spec{Size: 10, Slide: 1}
	if got := s.ValidFrom(math.MinInt64 + 3); got != math.MinInt64 {
		t.Fatalf("ValidFrom(MinInt64+3) = %d, want MinInt64", got)
	}
	m := NewManager(s)
	m.Observe(math.MinInt64 + 1)
	if d, due := m.Observe(math.MinInt64 + 2); !due || d != math.MinInt64 {
		t.Fatalf("Observe(MinInt64+2) = %d,%v, want MinInt64,true", d, due)
	}

	// With slide 10 the first slide boundary below MinInt64+1 lies
	// outside the range: it saturates, and the slides after it are due.
	m = NewManager(Spec{Size: 30, Slide: 10})
	m.Observe(math.MinInt64 + 1)
	if b := m.Boundary(); b != math.MinInt64 {
		t.Fatalf("boundary after Observe(MinInt64+1) = %d, want MinInt64", b)
	}
	crossings := 0
	for ts := int64(math.MinInt64 + 2); ts < math.MinInt64+1000; ts++ {
		if d, due := m.Observe(ts); due {
			crossings++
			if want := satSub(slideStart(ts, 10), 30); d != want {
				t.Fatalf("Observe(%d) deadline %d, want %d", ts, d, want)
			}
		}
	}
	if crossings != 100 {
		t.Fatalf("%d slide crossings over 1000 time units from MinInt64, want 100", crossings)
	}
}

func TestFloorDivProperties(t *testing.T) {
	f := func(a int64, b uint8) bool {
		d := int64(b%60) + 1
		q := floorDiv(a, d)
		// q is the unique integer with q*d <= a < (q+1)*d.
		return q*d <= a && a < (q+1)*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Operands near MinInt64, where q*d itself may leave the range: q is
	// the truncated quotient or one below it, and the remainder a-q*d
	// (exact in wrapping arithmetic) lies in [0, d).
	for _, d := range []int64{1, 2, 3, 7, 10, 60, math.MaxInt64} {
		for off := int64(0); off < 25; off++ {
			a := int64(math.MinInt64) + off
			q := floorDiv(a, d)
			if r := a - q*d; (q != a/d && q != a/d-1) || r < 0 || r >= d {
				t.Fatalf("floorDiv(%d, %d) = %d, remainder %d", a, d, q, r)
			}
		}
	}
}

func TestDeadlineMonotone(t *testing.T) {
	// Deadlines from any non-decreasing observation sequence must be
	// strictly increasing.
	f := func(steps []uint8, size8, slide8 uint8) bool {
		size := int64(size8%50) + 10
		slide := int64(slide8%10) + 1
		m := NewManager(Spec{Size: size, Slide: slide})
		ts := int64(0)
		last := int64(-1 << 62)
		for _, s := range steps {
			ts += int64(s % 7)
			if deadline, due := m.Observe(ts); due {
				if deadline <= last {
					return false
				}
				last = deadline
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObserveMatchesModel(t *testing.T) {
	// Observe reports a crossing exactly when the slide boundary
	// ⌊ts/β⌋·β moves past the last one recorded (the first observation
	// records without reporting), with deadline boundary − |W|.
	f := func(steps []uint8, size8, slide8 uint8) bool {
		size := int64(size8%50) + 10
		slide := int64(slide8%10) + 1
		m := NewManager(Spec{Size: size, Slide: slide})
		ts := int64(0)
		var boundary int64
		for i, s := range steps {
			ts += int64(s % 7)
			we := (ts / slide) * slide // ts >= 0
			wantDue := i > 0 && we > boundary
			d, due := m.Observe(ts)
			if due != wantDue || (due && d != we-size) {
				return false
			}
			if i == 0 || due {
				boundary = we
			}
			if m.Boundary() != boundary {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
