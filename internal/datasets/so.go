package datasets

import (
	"math/rand"

	"streamrpq/internal/stream"
)

// SOLabels are the three interaction types of the Stackoverflow
// temporal graph [Paranjape et al. 2017]: answer-to-question,
// comment-to-answer and comment-to-question.
var SOLabels = []string{"a2q", "c2a", "c2q"}

// SOConfig parameterizes the Stackoverflow-like generator.
type SOConfig struct {
	Edges         int     // number of tuples to generate
	Vertices      int     // size of the user population
	EdgesPerTick  int     // arrival rate: edges sharing one timestamp unit
	Skew          float64 // Zipf exponent of user activity (>1)
	ReplyBackProb float64 // probability an edge answers back a recent edge (cycles)
	Seed          int64
}

// DefaultSO returns the reference configuration, scaled by the given
// number of edges.
func DefaultSO(edges int) SOConfig {
	return SOConfig{
		Edges:         edges,
		Vertices:      max(64, edges/30),
		EdgesPerTick:  16,
		Skew:          1.4,
		ReplyBackProb: 0.35,
		Seed:          1,
	}
}

// SO generates a Stackoverflow-like stream: a single vertex type, three
// labels covering every edge, Zipf-skewed user activity and a high
// reply-back rate, which makes the graph dense and highly cyclic — the
// paper's most challenging workload (its label density means broad
// queries match every edge).
func SO(cfg SOConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zv := newZipfVertex(rng, cfg.Vertices, cfg.Skew)

	d := &Dataset{Name: "SO", Labels: SOLabels}
	d.Tuples = make([]stream.Tuple, 0, cfg.Edges)

	// recent holds a sliding sample of recent edges for reply-backs.
	recent := make([]stream.Tuple, 0, 1024)
	ts := int64(0)
	for i := 0; i < cfg.Edges; i++ {
		if cfg.EdgesPerTick > 0 && i%cfg.EdgesPerTick == 0 {
			ts++
		}
		var src, dst stream.VertexID
		if len(recent) > 0 && rng.Float64() < cfg.ReplyBackProb {
			// Answer back to the source of a recent interaction:
			// creates 2-cycles and longer feedback loops.
			prev := recent[rng.Intn(len(recent))]
			src, dst = prev.Dst, prev.Src
		} else {
			src, dst = zv.draw(), zv.draw()
			for dst == src {
				dst = zv.draw()
			}
		}
		t := stream.Tuple{
			TS:    ts,
			Src:   src,
			Dst:   dst,
			Label: stream.LabelID(rng.Intn(len(SOLabels))),
		}
		d.Tuples = append(d.Tuples, t)
		if len(recent) < cap(recent) {
			recent = append(recent, t)
		} else {
			recent[rng.Intn(len(recent))] = t
		}
	}
	return d
}
