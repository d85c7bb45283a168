package stream_test

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"streamrpq"
	"streamrpq/internal/stream"
)

// FuzzTupleLine: the facade's ParseTuple and stream.Reader read a line
// through the one text-format parser, so they accept and reject the
// same lines, with the same message, and agree field for field on what
// they accept; an accepted tuple rendered back into the format parses
// to itself.
func FuzzTupleLine(f *testing.F) {
	for _, seed := range []string{
		// TestReplayParseErrors' table.
		"nonsense line here extra",
		"abc u v l",
		"1 u v l *",
		// Well-formed lines, with and without an op.
		"1 x y knows",
		"2 y z likes -",
		"  3\tu v follows +  ",
		"# comment",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.Contains(line, "\n") {
			return // one line per input
		}
		pt, perr := streamrpq.ParseTuple(line)
		vertices, labels := stream.NewDict(), stream.NewDict()
		rt, rerr := stream.NewReader(strings.NewReader(line), vertices, labels).Read()
		if text := strings.TrimSpace(line); text == "" || strings.HasPrefix(text, "#") {
			// The reader skips blank lines and comments; as tuples they
			// are malformed.
			if rerr != io.EOF || perr == nil {
				t.Fatalf("%q: reader err %v, ParseTuple err %v; want EOF and an error", line, rerr, perr)
			}
			return
		}
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: ParseTuple err %v, reader err %v", line, perr, rerr)
		}
		if perr != nil {
			if p, r := strings.TrimPrefix(perr.Error(), "streamrpq: "), strings.TrimPrefix(rerr.Error(), "stream: line 1: "); p != r {
				t.Fatalf("%q: ParseTuple says %q, reader says %q", line, p, r)
			}
			return
		}
		got := streamrpq.Tuple{
			TS:     rt.TS,
			Src:    vertices.Name(int(rt.Src)),
			Dst:    vertices.Name(int(rt.Dst)),
			Label:  labels.Name(int(rt.Label)),
			Delete: rt.Op == stream.Delete,
		}
		if !reflect.DeepEqual(got, pt) {
			t.Fatalf("%q: reader read %+v, ParseTuple %+v", line, got, pt)
		}
		op := "+"
		if pt.Delete {
			op = "-"
		}
		rendered := fmt.Sprintf("%d %s %s %s %s", pt.TS, pt.Src, pt.Dst, pt.Label, op)
		if again, err := streamrpq.ParseTuple(rendered); err != nil || !reflect.DeepEqual(again, pt) {
			t.Fatalf("%q rendered as %q parses to %+v, %v", line, rendered, again, err)
		}
	})
}
