package main

import "time"

// clock is the time source of the open-loop scheduler; tests drive it
// with a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop runs n operations on a fixed schedule from one generator:
// operation i is due at start + i×interval whether or not the system
// kept up. An operation that is still running when the next one falls
// due makes that one late; it is then issued at once, and its latency
// is still counted from its due time, so the wait a stall imposes on
// later operations is measured, not hidden. It returns each
// operation's due time and how late it was issued.
func openLoop(clk clock, n int, interval time.Duration, op func(i int)) (due []time.Time, late []time.Duration) {
	due = make([]time.Time, n)
	late = make([]time.Duration, n)
	start := clk.Now()
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(i) * interval)
		if d := due[i].Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		if l := clk.Now().Sub(due[i]); l > 0 {
			late[i] = l
		}
		op(i)
	}
	return due, late
}

// maxBacklog is the largest number of operations in flight at once:
// issued (at due+late) and not yet ended.
func maxBacklog(due []time.Time, late []time.Duration, end []time.Time) int {
	most, oldest := 0, 0
	for i := range due {
		issued := due[i].Add(late[i])
		for oldest < i && !end[oldest].After(issued) {
			oldest++
		}
		most = max(most, i-oldest+1)
	}
	return most
}
