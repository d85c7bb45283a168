package datasets

import (
	"fmt"
	"math/rand"

	"streamrpq/internal/stream"
)

// YagoConfig parameterizes the Yago2s-like RDF stream generator.
type YagoConfig struct {
	Edges        int
	Vertices     int
	NumLabels    int     // ~100 in Yago2s
	LabelSkew    float64 // Zipf exponent of label frequencies
	EdgesPerTick int     // fixed timestamp-assignment rate (§5.1.2)
	Seed         int64
}

// DefaultYago returns the reference configuration.
func DefaultYago(edges int) YagoConfig {
	return YagoConfig{
		Edges:        edges,
		Vertices:     max(256, edges/4), // sparse: few edges per subject
		NumLabels:    100,
		LabelSkew:    1.6,
		EdgesPerTick: 16,
		Seed:         3,
	}
}

// yagoLabelNames returns a Yago2s-flavored label vocabulary; the first
// entries are the predicates Table 3 binds queries to, the remainder
// are numbered property names.
func yagoLabelNames(n int) []string {
	base := []string{
		"happenedIn", "hasCapital", "participatedIn", "dealtWith",
		"isLocatedIn", "hasChild", "influences", "owns", "livesIn",
		"actedIn", "created", "directed", "diedIn", "wasBornIn",
		"worksAt", "playsFor", "isMarriedTo", "graduatedFrom",
		"isCitizenOf", "hasWonPrize",
	}
	out := make([]string, 0, n)
	out = append(out, base[:min(len(base), n)]...)
	for i := len(out); i < n; i++ {
		out = append(out, fmt.Sprintf("property%02d", i))
	}
	return out
}

// Yago generates a Yago2s-like RDF stream: a sparse, heterogeneous
// graph over ~100 predicates with Zipf-skewed frequencies. Timestamps
// are assigned at a fixed rate ("a monotonically non-decreasing
// timestamp to each RDF triple at a fixed rate", §5.1.2), so windows
// hold a fixed number of edges and the window-size sweep of Figure 6
// is well defined.
func Yago(cfg YagoConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zl := rand.NewZipf(rng, cfg.LabelSkew, 1, uint64(cfg.NumLabels-1))
	zv := newZipfVertex(rng, cfg.Vertices, 1.2)

	d := &Dataset{Name: "Yago", Labels: yagoLabelNames(cfg.NumLabels)}
	d.Tuples = make([]stream.Tuple, 0, cfg.Edges)
	ts := int64(0)
	for i := 0; i < cfg.Edges; i++ {
		if cfg.EdgesPerTick > 0 && i%cfg.EdgesPerTick == 0 {
			ts++
		}
		src, dst := zv.draw(), zv.draw()
		if src == dst {
			dst = stream.VertexID((int(dst) + 1) % cfg.Vertices)
		}
		d.Tuples = append(d.Tuples, stream.Tuple{
			TS:    ts,
			Src:   src,
			Dst:   dst,
			Label: stream.LabelID(zl.Uint64()),
		})
	}
	return d
}
