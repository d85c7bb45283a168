// Package datasets generates the synthetic streaming graphs used by
// the experiment harness. Each generator reproduces the structural
// properties the paper attributes to its real-world counterpart
// (§5.1.2), in place of the dataset itself:
//
//   - SO: the Stackoverflow temporal interaction graph — one vertex
//     type, three labels (a2q, c2a, c2q), dense and highly cyclic.
//   - LDBC: the LDBC SNB update stream — typed social network with 8
//     interaction labels, of which only `knows` and `replyOf` are
//     recursive.
//   - Yago: the Yago2s RDF graph — sparse, heterogeneous, ~100 labels
//     with Zipf-skewed frequencies and monotone synthetic timestamps.
//   - GMark: a gMark-style schema-driven graph and query-workload
//     generator for the sensitivity experiments (Figures 7–9).
package datasets

import (
	"fmt"
	"math/rand"

	"streamrpq/internal/stream"
)

// Dataset is a fully materialized synthetic streaming graph: a tuple
// sequence with non-decreasing timestamps plus the label dictionary
// that maps dense label ids back to names.
type Dataset struct {
	Name   string
	Labels []string // label id -> name
	Tuples []stream.Tuple
}

// LabelID returns the dense id of a label name, or -1 if absent.
func (d *Dataset) LabelID(name string) int {
	for i, l := range d.Labels {
		if l == name {
			return i
		}
	}
	return -1
}

// NumVertices returns the number of distinct vertices in the stream.
func (d *Dataset) NumVertices() int {
	seen := make(map[stream.VertexID]struct{})
	for _, t := range d.Tuples {
		seen[t.Src] = struct{}{}
		seen[t.Dst] = struct{}{}
	}
	return len(seen)
}

// WithDeletions returns a copy of the dataset where approximately
// ratio of the tuples are explicit deletions of previously inserted
// edges, generated the way §5.4 does: "by reinserting a previously
// consumed edge as a negative tuple". Timestamps stay non-decreasing;
// the total tuple count is preserved.
func (d *Dataset) WithDeletions(ratio float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := &Dataset{Name: fmt.Sprintf("%s+del%.0f%%", d.Name, ratio*100), Labels: d.Labels}
	out.Tuples = make([]stream.Tuple, 0, len(d.Tuples))
	var inserted []stream.Tuple
	for _, t := range d.Tuples {
		if len(inserted) > 16 && rng.Float64() < ratio {
			victim := inserted[rng.Intn(len(inserted))]
			out.Tuples = append(out.Tuples, stream.Tuple{
				TS: t.TS, Src: victim.Src, Dst: victim.Dst, Label: victim.Label,
				Op: stream.Delete,
			})
			continue
		}
		out.Tuples = append(out.Tuples, t)
		inserted = append(inserted, t)
	}
	return out
}

// zipfVertex draws skewed vertex ids in [0,n): small ids are "hub"
// vertices. A fresh rand.Zipf is cheap enough at our scales.
type zipfVertex struct {
	z *rand.Zipf
	n uint64
}

func newZipfVertex(rng *rand.Rand, n int, skew float64) *zipfVertex {
	if n < 2 {
		n = 2
	}
	return &zipfVertex{z: rand.NewZipf(rng, skew, 1, uint64(n-1)), n: uint64(n)}
}

func (zv *zipfVertex) draw() stream.VertexID {
	return stream.VertexID(zv.z.Uint64())
}
