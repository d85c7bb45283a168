package datasets

import (
	"math/rand"

	"streamrpq/internal/stream"
)

// LDBCLabels are the 8 interaction types of the LDBC SNB update
// stream modeled by the generator. Only knows (person–person) and
// replyOf (comment–message) are recursive relations; the rest connect
// different vertex types, so Kleene closures over them are trivial —
// exactly the property that excludes Q4, Q8, Q9 and Q10 on this graph
// (§5.1.2 / Figure 4(b)).
var LDBCLabels = []string{
	"knows", "replyOf", "hasCreator", "likes",
	"hasTag", "hasModerator", "containerOf", "hasMember",
}

// Label ids in LDBCLabels order.
const (
	ldbcKnows = iota
	ldbcReplyOf
	ldbcHasCreator
	ldbcLikes
	ldbcHasTag
	ldbcHasModerator
	ldbcContainerOf
	ldbcHasMember
)

// LDBCConfig parameterizes the social-network stream generator.
type LDBCConfig struct {
	Edges        int
	Persons      int
	EdgesPerTick int
	Seed         int64
}

// DefaultLDBC returns the reference configuration.
func DefaultLDBC(edges int) LDBCConfig {
	return LDBCConfig{
		Edges:        edges,
		Persons:      max(64, edges/40),
		EdgesPerTick: 16,
		Seed:         2,
	}
}

// LDBC generates an LDBC-SNB-like update stream. Vertex id space is
// typed by range: persons, then forums/tags, then messages (posts and
// comments), mirroring the heterogeneous schema of the benchmark.
// Messages form reply trees (replyOf chains), persons form a knows
// network with triadic closure, and the remaining labels attach
// messages, tags and forums to persons.
func LDBC(cfg LDBCConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	persons := cfg.Persons
	forums := persons / 4
	if forums < 4 {
		forums = 4
	}

	d := &Dataset{Name: "LDBC", Labels: LDBCLabels}
	d.Tuples = make([]stream.Tuple, 0, cfg.Edges)

	personID := func(i int) stream.VertexID { return stream.VertexID(i) }
	forumID := func(i int) stream.VertexID { return stream.VertexID(persons + i) }
	nextMessage := persons + forums // messages allocated incrementally

	pz := newZipfVertex(rng, persons, 1.3)

	// messages records (message vertex, creator, depth) so replies can
	// chain; bounded sample.
	type msg struct {
		id      stream.VertexID
		creator stream.VertexID
	}
	messages := make([]msg, 0, 4096)

	// knowsAdj is a bounded sample of knows edges for triadic closure.
	knowsAdj := make([]struct{ a, b stream.VertexID }, 0, 4096)

	ts := int64(0)
	emit := func(src, dst stream.VertexID, label stream.LabelID) {
		d.Tuples = append(d.Tuples, stream.Tuple{TS: ts, Src: src, Dst: dst, Label: label})
	}
	for i := 0; i < cfg.Edges; i++ {
		if cfg.EdgesPerTick > 0 && i%cfg.EdgesPerTick == 0 {
			ts++
		}
		switch r := rng.Float64(); {
		case r < 0.25: // knows: person-person, with triadic closure
			var a, b stream.VertexID
			if len(knowsAdj) > 8 && rng.Float64() < 0.4 {
				// close a triangle: a knows b, b knows c => a knows c
				e1 := knowsAdj[rng.Intn(len(knowsAdj))]
				e2 := knowsAdj[rng.Intn(len(knowsAdj))]
				a, b = e1.a, e2.b
			} else {
				a, b = pz.draw(), pz.draw()
			}
			if a == b {
				b = personID(int(b+1) % persons)
			}
			emit(a, b, ldbcKnows)
			if len(knowsAdj) < cap(knowsAdj) {
				knowsAdj = append(knowsAdj, struct{ a, b stream.VertexID }{a, b})
			} else {
				knowsAdj[rng.Intn(len(knowsAdj))] = struct{ a, b stream.VertexID }{a, b}
			}
		case r < 0.50: // new message: post (container) or comment (replyOf)
			creator := pz.draw()
			id := stream.VertexID(nextMessage)
			nextMessage++
			if len(messages) > 0 && rng.Float64() < 0.7 {
				parent := messages[rng.Intn(len(messages))]
				emit(id, parent.id, ldbcReplyOf) // comment replies to message
			} else {
				emit(forumID(rng.Intn(forums)), id, ldbcContainerOf) // post in forum
			}
			emit(id, creator, ldbcHasCreator)
			i++ // hasCreator consumed one extra slot
			if len(messages) < cap(messages) {
				messages = append(messages, msg{id: id, creator: creator})
			} else {
				messages[rng.Intn(len(messages))] = msg{id: id, creator: creator}
			}
		case r < 0.70 && len(messages) > 0: // likes: person -> message
			m := messages[rng.Intn(len(messages))]
			emit(pz.draw(), m.id, ldbcLikes)
		case r < 0.80 && len(messages) > 0: // hasTag: message -> tag (tags share forum id space)
			m := messages[rng.Intn(len(messages))]
			emit(m.id, forumID(rng.Intn(forums)), ldbcHasTag)
		case r < 0.90: // hasMember: forum -> person
			emit(forumID(rng.Intn(forums)), pz.draw(), ldbcHasMember)
		default: // hasModerator: forum -> person
			emit(forumID(rng.Intn(forums)), pz.draw(), ldbcHasModerator)
		}
	}
	if len(d.Tuples) > cfg.Edges {
		d.Tuples = d.Tuples[:cfg.Edges]
	}
	return d
}
