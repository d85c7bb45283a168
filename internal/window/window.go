// Package window implements the time-based sliding-window bookkeeping
// of Definitions 4–5 of Pacaci et al. (SIGMOD 2020).
//
// Following §2 of the paper, queries use eager evaluation (every
// arriving tuple is processed immediately, β=1 for results) combined
// with lazy expiration (expired tuples are physically removed only at
// user-defined slide intervals β). The Manager tells the engine when a
// slide boundary has been crossed and which deadline to expire to.
package window

import (
	"fmt"
	"math"
)

// Spec describes a time-based sliding window: Size is |W| and Slide is
// the slide interval β, both in stream time units.
type Spec struct {
	Size  int64 // |W| > 0
	Slide int64 // β ≥ 1
}

// Validate checks the specification for consistency.
func (s Spec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("window: size must be positive, got %d", s.Size)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: slide must be positive, got %d", s.Slide)
	}
	if s.Slide > s.Size {
		return fmt.Errorf("window: slide %d larger than window size %d", s.Slide, s.Size)
	}
	return nil
}

// ValidFrom returns the exclusive lower bound of valid timestamps at
// time now: an edge or tree node is inside the window iff ts > ValidFrom.
func (s Spec) ValidFrom(now int64) int64 { return satSub(now, s.Size) }

// satSub returns a-b for b > 0, saturating at math.MinInt64 instead of
// wrapping around to a huge positive bound near the bottom of the
// timestamp range.
func satSub(a, b int64) int64 {
	if a < math.MinInt64+b {
		return math.MinInt64
	}
	return a - b
}

// Manager tracks slide boundaries for lazy expiration.
type Manager struct {
	spec     Spec
	boundary int64 // W^e of the last expiry run
	started  bool
}

// NewManager returns a Manager for the given specification.
func NewManager(spec Spec) *Manager {
	return &Manager{spec: spec}
}

// Spec returns the window specification.
func (m *Manager) Spec() Spec { return m.spec }

// Observe is called with each tuple timestamp in non-decreasing order.
// It reports whether a slide boundary was crossed since the previous
// call and, if so, the expiry deadline: every element with ts ≤ deadline
// has left the window (W^b = ⌊τ/β⌋·β − |W|). The first observation only
// establishes the boundary.
func (m *Manager) Observe(ts int64) (deadline int64, due bool) {
	we := slideStart(ts, m.spec.Slide)
	if !m.started {
		m.started, m.boundary = true, we
		return 0, false
	}
	if we <= m.boundary {
		return 0, false
	}
	m.boundary = we
	return satSub(we, m.spec.Size), true
}

// Boundary returns W^e of the last expiry run.
func (m *Manager) Boundary() int64 { return m.boundary }

// State is the checkpointable position of a Manager: the last committed
// slide boundary and whether a tuple has been observed at all.
type State struct {
	Boundary int64
	Started  bool
}

// State returns the manager's current position for a checkpoint.
func (m *Manager) State() State {
	return State{Boundary: m.boundary, Started: m.started}
}

// SetState restores a position captured by State. The specification is
// not part of the state; it must match by construction.
func (m *Manager) SetState(st State) {
	m.boundary = st.Boundary
	m.started = st.Started
}

// slideStart returns ⌊ts/slide⌋·slide for slide > 0, saturating at
// math.MinInt64 when that boundary lies below the timestamp range (ts
// within one slide of math.MinInt64) instead of wrapping around to a
// huge positive boundary that no later slide would ever cross.
func slideStart(ts, slide int64) int64 {
	q := floorDiv(ts, slide)
	if q < math.MinInt64/slide {
		return math.MinInt64
	}
	return q * slide
}

// floorDiv is integer division rounding toward negative infinity, so
// negative timestamps behave consistently.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
