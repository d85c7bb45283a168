package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text stream format: one tuple per line,
//
//	<ts> <src> <dst> <label> [+|-]
//
// where ts is a decimal integer, src/dst/label are arbitrary
// whitespace-free strings, and the optional op defaults to '+'.
// Lines starting with '#' and blank lines are ignored.

// ParseLine parses one line of the text format into its fields. It is
// the format's only parser: Reader, and the facade's ParseTuple and
// Replay functions, all read lines through it. Skipping comments and
// blank lines is the caller's business; here they are malformed.
func ParseLine(line string) (ts int64, src, dst, label string, op Op, err error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields) > 5 {
		return 0, "", "", "", Insert, fmt.Errorf("want 4 or 5 fields, got %d", len(fields))
	}
	ts, err = strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, "", "", "", Insert, fmt.Errorf("bad timestamp %q: %v", fields[0], err)
	}
	if len(fields) == 5 {
		switch fields[4] {
		case "+":
		case "-":
			op = Delete
		default:
			return 0, "", "", "", Insert, fmt.Errorf("bad op %q (want + or -)", fields[4])
		}
	}
	return ts, fields[1], fields[2], fields[3], op, nil
}

// Reader decodes a text-encoded tuple stream, dictionary-encoding
// vertices and labels on the fly.
type Reader struct {
	s        *bufio.Scanner
	vertices *Dict
	labels   *Dict
	line     int
}

// NewReader returns a Reader over r using the given dictionaries.
// Passing shared dictionaries lets several stream files agree on ids.
func NewReader(r io.Reader, vertices, labels *Dict) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Reader{s: s, vertices: vertices, labels: labels}
}

// Vertices returns the vertex dictionary.
func (r *Reader) Vertices() *Dict { return r.vertices }

// Labels returns the label dictionary.
func (r *Reader) Labels() *Dict { return r.labels }

// Read returns the next tuple, or io.EOF at end of stream.
func (r *Reader) Read() (Tuple, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ts, src, dst, label, op, err := ParseLine(line)
		if err != nil {
			return Tuple{}, fmt.Errorf("stream: line %d: %w", r.line, err)
		}
		return Tuple{
			TS:    ts,
			Src:   VertexID(r.vertices.ID(src)),
			Dst:   VertexID(r.vertices.ID(dst)),
			Label: LabelID(r.labels.ID(label)),
			Op:    op,
		}, nil
	}
	if err := r.s.Err(); err != nil {
		return Tuple{}, err
	}
	return Tuple{}, io.EOF
}

// ReadAll reads the remaining tuples.
func (r *Reader) ReadAll() ([]Tuple, error) {
	var out []Tuple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
