// Package stream defines the streaming-graph data model of the paper
// (Definitions 2–3): streaming graph tuples (sgts), dictionary encoding
// of vertices and labels, and the line-oriented text format of stream
// files (ParseLine, Reader).
package stream

import "fmt"

// Op is the type of a streaming graph tuple: insertion or explicit
// deletion (the "negative tuples" of §3.2).
type Op int8

const (
	// Insert adds an edge to the window (op '+' in the paper).
	Insert Op = iota
	// Delete explicitly removes a previously inserted edge (op '−').
	Delete
)

func (o Op) String() string {
	if o == Delete {
		return "-"
	}
	return "+"
}

// VertexID is a dictionary-encoded vertex identifier.
type VertexID uint32

// LabelID is a dictionary-encoded edge label.
type LabelID int32

// Tuple is a streaming graph tuple (τ, e, l, op): a timestamped,
// labeled, directed edge with an operation type (Definition 2).
// Timestamps are application timestamps in arbitrary integer time
// units, assigned by the source in non-decreasing order.
type Tuple struct {
	TS    int64
	Src   VertexID
	Dst   VertexID
	Label LabelID
	Op    Op
}

func (t Tuple) String() string {
	return fmt.Sprintf("(%d, %d->%d, l%d, %s)", t.TS, t.Src, t.Dst, t.Label, t.Op)
}

// EdgeKey identifies an edge by endpoints and label, independent of
// timestamp. Re-insertions of the same (src,dst,label) refresh the
// stored timestamp; deletions remove the key.
type EdgeKey struct {
	Src   VertexID
	Dst   VertexID
	Label LabelID
}

// Key returns the tuple's edge key.
func (t Tuple) Key() EdgeKey { return EdgeKey{Src: t.Src, Dst: t.Dst, Label: t.Label} }
