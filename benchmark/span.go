package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the driver made into a layer's public API — or, at
// batch granularity, one batch's worth of such calls. Parent is the
// index of the span that caused it (-1 for a root); spans of one batch
// share Batch. The isolated layer replays run after the facade run, on
// the same generated input, so a replay span names as its parent the
// facade span of the same batch: the time it explains, not the time it
// ran in.
type span struct {
	Name     string  `json:"name"`
	Start    int64   `json:"start_ns"` // since the recorder started
	End      int64   `json:"end_ns"`
	Parent   int     `json:"parent"`
	Batch    int     `json:"batch"`
	Slowdown float64 `json:"cpu_slowdown"` // local CPU slowdown while it ran (see calibrator)
	mark     int
}

// ns is the span's calibrated duration.
func (s span) ns() float64 { return float64(s.End-s.Start) / s.Slowdown }

// recorder keeps spans in a preallocated slice and writes them out
// when the run ends.
type recorder struct {
	t0    time.Time
	cal   *calibrator
	spans []span
}

func newRecorder(cal *calibrator, capacity int) *recorder {
	return &recorder{t0: time.Now(), cal: cal, spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name string, parent, batch int) int {
	m := r.cal.mark()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Batch: batch, mark: m, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// settle fills in the slowdown of the spans from index from on; the
// marks after them exist by now.
func (r *recorder) settle(from int) {
	r.cal.bracket()
	for i := from; i < len(r.spans); i++ {
		r.spans[i].Slowdown = r.cal.slowdown(r.spans[i].mark)
	}
}

// selfNs returns, per span name, the calibrated time of the spans of
// that name minus the time their direct children account for: the
// layer's self time.
func selfNs(spans []span) map[string]float64 {
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += s.ns()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.ns()
		}
	}
	return self
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
