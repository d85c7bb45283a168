package datasets

import (
	"fmt"
	"math/rand"

	"streamrpq/internal/pattern"
	"streamrpq/internal/stream"
)

// GMarkConfig parameterizes the gMark-style schema-driven generator
// (§5.1.2: "a pre-configured schema that mimics the characteristics of
// LDBC SNB").
type GMarkConfig struct {
	Edges        int
	Vertices     int
	NumLabels    int
	EdgesPerTick int
	Seed         int64
}

// DefaultGMark returns the reference configuration.
func DefaultGMark(edges int) GMarkConfig {
	return GMarkConfig{
		Edges:        edges,
		Vertices:     max(128, edges/8),
		NumLabels:    8,
		EdgesPerTick: 16,
		Seed:         4,
	}
}

// GMark generates a schema-driven graph stream: each label has its own
// in/out degree profile (hub-like, uniform, or chain-like), mimicking
// gMark's per-predicate degree distributions, and timestamps are
// assigned at a fixed rate like the paper does for static gMark output.
func GMark(cfg GMarkConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	labels := make([]string, cfg.NumLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	// Per-label endpoint distributions: alternate between skewed and
	// uniform source/target populations.
	type profile struct {
		src *zipfVertex
		dst *zipfVertex
	}
	profiles := make([]profile, cfg.NumLabels)
	for i := range profiles {
		var p profile
		if i%2 == 0 {
			p.src = newZipfVertex(rng, cfg.Vertices, 1.5)
		} else {
			p.src = newZipfVertex(rng, cfg.Vertices, 1.05)
		}
		if i%3 == 0 {
			p.dst = newZipfVertex(rng, cfg.Vertices, 1.5)
		} else {
			p.dst = newZipfVertex(rng, cfg.Vertices, 1.05)
		}
		profiles[i] = p
	}
	zlabel := rand.NewZipf(rng, 1.2, 1, uint64(cfg.NumLabels-1))

	d := &Dataset{Name: "gMark", Labels: labels}
	d.Tuples = make([]stream.Tuple, 0, cfg.Edges)
	ts := int64(0)
	for i := 0; i < cfg.Edges; i++ {
		if cfg.EdgesPerTick > 0 && i%cfg.EdgesPerTick == 0 {
			ts++
		}
		l := int(zlabel.Uint64())
		src := profiles[l].src.draw()
		dst := profiles[l].dst.draw()
		if src == dst {
			dst = stream.VertexID((int(dst) + 1) % cfg.Vertices)
		}
		d.Tuples = append(d.Tuples, stream.Tuple{
			TS: ts, Src: src, Dst: dst, Label: stream.LabelID(l),
		})
	}
	return d
}

// GMarkQuery is one synthetic RPQ of the sensitivity workload.
type GMarkQuery struct {
	Name string
	Expr *pattern.Expr
	Size int // |Q| per §5.1.2
}

// GMarkQueries generates n synthetic RPQs following §5.1.2: "the query
// size ranges from 2 to 20 … each RPQ is formulated by grouping labels
// into concatenations and alternations of size up to 3 where each
// group has a 50% probability of having * and +". Sizes are spread
// uniformly over [minSize, maxSize].
func GMarkQueries(n int, labels []string, minSize, maxSize int, seed int64) []GMarkQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]GMarkQuery, 0, n)
	for i := 0; i < n; i++ {
		target := minSize
		if maxSize > minSize {
			target += rng.Intn(maxSize - minSize + 1)
		}
		e := randomRPQ(rng, labels, target)
		out = append(out, GMarkQuery{
			Name: fmt.Sprintf("G%03d", i),
			Expr: e,
			Size: e.Size(),
		})
	}
	return out
}

// randomRPQ builds an expression of size ≈ target (within one unit:
// closing a group may overshoot by its star).
func randomRPQ(rng *rand.Rand, labels []string, target int) *pattern.Expr {
	var groups []*pattern.Expr
	budget := target
	for budget > 0 {
		// Group of 1..3 labels, concatenated or alternated.
		gsize := 1 + rng.Intn(3)
		if gsize > budget {
			gsize = budget
		}
		members := make([]*pattern.Expr, gsize)
		for i := range members {
			members[i] = pattern.Label(labels[rng.Intn(len(labels))])
		}
		var g *pattern.Expr
		if gsize == 1 {
			g = members[0]
		} else if rng.Intn(2) == 0 {
			g = pattern.Concat(members...)
		} else {
			g = pattern.Alt(members...)
		}
		budget -= gsize
		// 50% probability of a closure, if the budget allows it.
		if budget > 0 && rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				g = pattern.Star(g)
			} else {
				g = pattern.Plus(g)
			}
			budget--
		}
		groups = append(groups, g)
	}
	return pattern.Concat(groups...)
}
