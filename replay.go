package streamrpq

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"streamrpq/internal/stream"
)

// Replay reads a text-encoded tuple stream ("ts src dst label [+|-]"
// per line, '#' comments and blank lines ignored) from r, feeds it to
// the evaluator, and calls onMatch for every result produced. At the end
// of the stream it drains the WithSlack reorder buffer (see
// Evaluator.Flush) and reports those matches too, so a tuple ingested
// afterwards must be newer than the stream's last. It returns the number
// of tuples ingested.
func Replay(r io.Reader, ev *Evaluator, onMatch func(Match)) (int64, error) {
	var n int64
	report := func(ms []Match) {
		if onMatch != nil {
			for _, m := range ms {
				onMatch(m)
			}
		}
	}
	err := scanTupleLines(r, func(line int, t Tuple) error {
		ms, err := ev.ingest(t)
		if err != nil {
			return fmt.Errorf("streamrpq: line %d: %w", line, err)
		}
		n++
		report(ms)
		return nil
	})
	if err != nil {
		return n, err
	}
	report(ev.Flush())
	return n, nil
}

// scanTupleLines is the shared line iterator of Replay and ReplayMulti:
// it scans the text stream format, skips comments and blank lines, and
// calls fn for every parsed tuple with its 1-based line number.
func scanTupleLines(r io.Reader, fn func(line int, t Tuple) error) error {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for s.Scan() {
		line++
		text := strings.TrimSpace(s.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t, err := parseTuple(text)
		if err != nil {
			return fmt.Errorf("streamrpq: line %d: %w", line, err)
		}
		if err := fn(line, t); err != nil {
			return err
		}
	}
	return s.Err()
}

// ReplayMulti reads the same text format into a MultiEvaluator in
// batches of batchSize tuples (amortizing the coordination cost of a
// sharded or persisted backend), skipping the first skip tuples — the
// resume path after Recover, where skip is AppliedTuples() and the
// input is the same stream file the crashed run was fed. onResult is
// called for every batch result in canonical order; tuple indexes are
// relative to the internal batch. It returns the number of tuples
// ingested (excluding skipped ones).
func ReplayMulti(r io.Reader, m *MultiEvaluator, batchSize int, skip int64, onResult func(BatchResult)) (int64, error) {
	if batchSize <= 0 {
		batchSize = 256
	}
	var n int64
	var c clock // the file's own order, skipped tuples included
	lastLine, batchFirstLine := 0, 0
	batch := make([]Tuple, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		brs, err := m.IngestBatch(batch)
		if err != nil {
			// Malformed input (out-of-order tuples) is caught per line
			// below, so a batch failure here is an engine/durability
			// condition; attribute it to the batch's input range.
			return fmt.Errorf("streamrpq: lines %d-%d: %w", batchFirstLine, lastLine, err)
		}
		n += int64(len(batch))
		batch = batch[:0]
		if onResult != nil {
			for _, br := range brs {
				onResult(br)
			}
		}
		return nil
	}
	err := scanTupleLines(r, func(line int, t Tuple) error {
		lastLine = line
		// Check order here, against the file as a whole, so the error
		// names the offending line instead of surfacing at the next batch
		// flush. Skipped tuples advance the clock too: they were applied
		// by the run being resumed.
		var err error
		if c, err = m.fe.admit(c, t); err != nil {
			return fmt.Errorf("streamrpq: line %d: %w", line, err)
		}
		if skip > 0 {
			skip--
			return nil
		}
		if len(batch) == 0 {
			batchFirstLine = line
		}
		batch = append(batch, t)
		if len(batch) >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	if err := flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ParseTuple parses one tuple in the stream text format
// ("ts src dst label [+|-]"). It is the single-line form of Replay's
// input format, exported for callers that receive tuples one at a time
// (e.g. the serving layer's ingest endpoint).
func ParseTuple(text string) (Tuple, error) {
	t, err := parseTuple(text)
	if err != nil {
		return Tuple{}, fmt.Errorf("streamrpq: %w", err)
	}
	return t, nil
}

func parseTuple(text string) (Tuple, error) {
	ts, src, dst, label, op, err := stream.ParseLine(text)
	if err != nil {
		return Tuple{}, err
	}
	return Tuple{TS: ts, Src: src, Dst: dst, Label: label, Delete: op == stream.Delete}, nil
}
