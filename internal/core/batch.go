package core

import (
	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
)

// BatchArbitrary evaluates an RPQ on a static snapshot graph under
// arbitrary path semantics with the polynomial batch algorithm of §3:
// for each vertex x, BFS over the product graph P_{G,A} from (x, s0),
// reporting (x, v) whenever a node (v, sf) with sf ∈ F is reached.
// Only edges with ts > validFrom participate (pass math.MinInt64 to use
// every edge). Complexity O(n·m·k²).
func BatchArbitrary(g *graph.Graph, a *automaton.Bound, validFrom int64) map[Pair]struct{} {
	results := make(map[Pair]struct{})
	g.Vertices(func(x stream.VertexID) bool {
		batchFrom(g, a, x, validFrom, func(v stream.VertexID) {
			results[Pair{From: x, To: v}] = struct{}{}
		})
		return true
	})
	return results
}

// BatchArbitraryFrom evaluates the query from a single source vertex.
func BatchArbitraryFrom(g *graph.Graph, a *automaton.Bound, x stream.VertexID, validFrom int64) map[stream.VertexID]struct{} {
	out := make(map[stream.VertexID]struct{})
	batchFrom(g, a, x, validFrom, func(v stream.VertexID) {
		out[v] = struct{}{}
	})
	return out
}

func batchFrom(g *graph.Graph, a *automaton.Bound, x stream.VertexID, validFrom int64, report func(stream.VertexID)) {
	type pnode struct {
		v stream.VertexID
		s int32
	}
	start := pnode{v: x, s: a.Start}
	seen := map[pnode]struct{}{start: {}}
	queue := []pnode{start}
	epoch := g.Epoch()
	var buf []graph.HalfEdge
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// buf is fully consumed into queue before the next refill.
		buf = g.AppendOutAt(epoch, cur.v, buf[:0])
		for _, he := range buf {
			if he.TS <= validFrom {
				continue
			}
			t := a.Step(cur.s, int(he.L))
			if t == automaton.NoState {
				continue
			}
			next := pnode{v: he.V, s: t}
			if _, ok := seen[next]; ok {
				continue
			}
			seen[next] = struct{}{}
			if a.Final[t] {
				report(he.V)
			}
			queue = append(queue, next)
		}
	}
}

// BatchWindowed evaluates the streaming-RPQ result of Definition 9 on
// the current snapshot: pairs connected by a path whose edges all have
// ts in (now-|W|, now]. It is the per-instant oracle used by tests and
// by the rescan baseline.
func BatchWindowed(g *graph.Graph, a *automaton.Bound, now, windowSize int64) map[Pair]struct{} {
	return BatchArbitrary(g, a, now-windowSize)
}

// BatchSimple enumerates regular simple paths by exhaustive DFS over
// the product graph with a per-path visited-vertex set. Exponential in
// the worst case; intended as a correctness oracle on small graphs and
// as the general (conflict-tolerant) batch comparator.
func BatchSimple(g *graph.Graph, a *automaton.Bound, validFrom int64) map[Pair]struct{} {
	results := make(map[Pair]struct{})
	g.Vertices(func(x stream.VertexID) bool {
		for v := range BatchSimpleFrom(g, a, x, validFrom) {
			results[Pair{From: x, To: v}] = struct{}{}
		}
		return true
	})
	return results
}

// BatchSimpleFrom enumerates regular simple paths from a single source.
func BatchSimpleFrom(g *graph.Graph, a *automaton.Bound, x stream.VertexID, validFrom int64) map[stream.VertexID]struct{} {
	out := make(map[stream.VertexID]struct{})
	onPath := map[stream.VertexID]struct{}{x: {}}
	epoch := g.Epoch()
	var dfs func(v stream.VertexID, s int32)
	dfs = func(v stream.VertexID, s int32) {
		// Per-frame buffer: the recursive call below traverses the
		// graph again, so the adjacency copy must survive it.
		for _, he := range g.AppendOutAt(epoch, v, nil) {
			if he.TS <= validFrom {
				continue
			}
			t := a.Step(s, int(he.L))
			if t == automaton.NoState {
				continue
			}
			if _, visited := onPath[he.V]; visited {
				continue // not a simple path
			}
			if a.Final[t] {
				out[he.V] = struct{}{}
			}
			onPath[he.V] = struct{}{}
			dfs(he.V, t)
			delete(onPath, he.V)
		}
	}
	dfs(x, a.Start)
	return out
}

// BatchSimpleMW is the Mendelzon–Wood batch algorithm for regular
// simple path queries (§4 "Batch Algorithm"): a DFS over the product
// graph that marks (vertex,state) nodes once their traversal completes
// without conflicts, pruning repeat visits of marked nodes. In the
// absence of conflicts it runs in O(n·m) and is complete; it is sound
// on every input. (The general conflictful case is NP-hard; use
// BatchSimple as the exhaustive oracle there.)
func BatchSimpleMW(g *graph.Graph, a *automaton.Bound, validFrom int64) map[Pair]struct{} {
	results := make(map[Pair]struct{})
	cont := a.Containment()
	g.Vertices(func(x stream.VertexID) bool {
		for v := range batchSimpleMWFrom(g, a, cont, x, validFrom) {
			results[Pair{From: x, To: v}] = struct{}{}
		}
		return true
	})
	return results
}

type mwKey struct {
	v stream.VertexID
	s int32
}

func batchSimpleMWFrom(g *graph.Graph, a *automaton.Bound, cont [][]bool, x stream.VertexID, validFrom int64) map[stream.VertexID]struct{} {
	out := make(map[stream.VertexID]struct{})
	marked := make(map[mwKey]bool)
	// pathStates[v] is the ordered list of states in which the current
	// DFS path visits vertex v (first element = first visit).
	pathStates := make(map[stream.VertexID][]int32)

	epoch := g.Epoch()

	// dfs returns true if the traversal below (v,s) completed without
	// detecting a conflict, i.e. (v,s) may be marked.
	var dfs func(v stream.VertexID, s int32) bool
	dfs = func(v stream.VertexID, s int32) bool {
		clean := true
		// Per-frame buffer: the recursive call below traverses the
		// graph again, so the adjacency copy must survive it.
		for _, he := range g.AppendOutAt(epoch, v, nil) {
			if he.TS <= validFrom {
				continue
			}
			t := a.Step(s, int(he.L))
			if t == automaton.NoState {
				continue
			}
			w := he.V
			if states := pathStates[w]; len(states) > 0 {
				// Vertex w already on the path: a simple path cannot
				// revisit it. Check for a conflict between the first
				// visiting state and t (Definition 16).
				if !cont[states[0]][t] {
					clean = false // conflict: ancestors must not be marked
				}
				continue
			}
			if marked[mwKey{v: w, s: t}] {
				continue // pruned: already fully explored conflict-free
			}
			if a.Final[t] {
				out[w] = struct{}{}
			}
			pathStates[w] = append(pathStates[w], t)
			sub := dfs(w, t)
			pathStates[w] = pathStates[w][:len(pathStates[w])-1]
			if len(pathStates[w]) == 0 {
				delete(pathStates, w)
			}
			if sub {
				marked[mwKey{v: w, s: t}] = true
			} else {
				clean = false
			}
		}
		return clean
	}
	pathStates[x] = append(pathStates[x], a.Start)
	dfs(x, a.Start)
	delete(pathStates, x)
	return out
}
