package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streamrpq/internal/automaton"
	"streamrpq/internal/graph"
	"streamrpq/internal/stream"
	"streamrpq/internal/window"
)

// ParallelRAPQ reproduces the intra-query parallelism of the paper's
// prototype (§5.1.1): "RAPQ algorithms employ intra-query parallelism
// by deploying a thread pool to process multiple spanning trees in
// parallel that are accessed for each incoming edge. Window management
// is parallelized similarly."
//
// It is scheduling, not a second algorithm: a driver that fans the
// candidate trees of a tuple (or all trees, at a slide boundary) over
// worker goroutines, each running RAPQ's own Insert / ExpiryRAPQ with a
// scratch of its own. Spanning trees are disjoint and a tree is owned
// by one worker for the whole fan-out; the snapshot graph is updated
// before it and read-only during it; and everything a worker would
// write outside its trees — matches, InsertCalls, inverted-index
// updates — is deferred into its scratch and merged here after the
// barrier, so the sink observes a deterministic (From, To, TS)-sorted
// order per tuple and never runs on a worker goroutine.
//
// Reachable through the facade's Evaluator.WithParallelism only; the
// multi-query coordinator parallelizes across groups instead.
type ParallelRAPQ struct {
	inner  *RAPQ
	ops    deltaOps   // the inner engine's, with insert and expire fanned out
	pool   []*scratch // one per worker goroutine, deferred
	merged []Match    // merge buffer, reused
}

// NewParallelRAPQ returns a tree-parallel RAPQ engine with the given
// worker count (≤ 0 means GOMAXPROCS).
func NewParallelRAPQ(a *automaton.Bound, spec window.Spec, workers int, opts ...Option) *ParallelRAPQ {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelRAPQ{inner: NewRAPQ(a, spec, opts...), pool: make([]*scratch, workers)}
	// Deletions are rare (§5.4): they run on the sequential engine.
	p.ops = deltaOps{insert: p.ApplyInsert, del: p.inner.ApplyDelete, expire: p.ApplyExpiry}
	for i := range p.pool {
		p.pool[i] = &scratch{deferred: true}
	}
	return p
}

// Graph implements Engine.
func (p *ParallelRAPQ) Graph() *graph.Graph { return p.inner.g }

// Stats implements Engine.
func (p *ParallelRAPQ) Stats() Stats { return p.inner.Stats() }

// Process implements Engine: the sequential engine's tuple routing,
// with the Δ updates fanned out.
func (p *ParallelRAPQ) Process(t stream.Tuple) { p.inner.process(t, &p.ops) }

// ApplyInsert is RAPQ.ApplyInsert fanned out over the trees that
// contain the source vertex.
func (p *ParallelRAPQ) ApplyInsert(t stream.Tuple) {
	e := p.inner
	roots, validFrom := e.candidateRoots(t)
	p.fanOut(roots, func(sc *scratch, root stream.VertexID) { e.insertEdge(sc, root, t, validFrom) })
}

// ApplyExpiry is RAPQ.ApplyExpiry fanned out over all trees ("window
// management is parallelized similarly"). Trees that shrank to their
// root are collected after the merge, on this goroutine.
func (p *ParallelRAPQ) ApplyExpiry(deadline int64) {
	e := p.inner
	start := time.Now()
	e.stats.ExpiryRuns++
	e.deadline = deadline
	roots := e.allRoots()
	p.fanOut(roots, func(sc *scratch, root stream.VertexID) { e.expireTree(sc, e.trees[root], deadline, false) })
	for _, root := range roots {
		e.dropIfRootOnly(e.trees[root])
	}
	e.stats.ExpiryTime += time.Since(start)
}

// fanOut runs fn once per root — fn touches that root's tree only —
// and merges what the workers deferred. Small fan-outs are cheaper on
// one worker; they still go through a deferred scratch so every path
// emits in the same sorted order. The trees map is not mutated during a
// fan-out, so fn may look its tree up without a lock.
func (p *ParallelRAPQ) fanOut(roots []stream.VertexID, fn func(sc *scratch, root stream.VertexID)) {
	if len(roots) < 2*len(p.pool) {
		for _, root := range roots {
			fn(p.pool[0], root)
		}
		p.merge()
		return
	}
	var next atomic.Int64 // index of the next unclaimed root
	var wg sync.WaitGroup
	for _, sc := range p.pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(roots)); i = next.Add(1) - 1 {
				fn(sc, roots[i])
			}
		}()
	}
	wg.Wait()
	p.merge()
}

// merge applies, on the driving goroutine, what the workers deferred:
// it folds InsertCalls, replays the inverted-index updates (a tree's
// updates sit in one scratch in order, and updates of different trees
// commute) and emits the matches in (From, To, TS) order.
func (p *ParallelRAPQ) merge() {
	e := p.inner
	all := p.merged[:0]
	for _, sc := range p.pool {
		e.stats.InsertCalls += sc.insertCalls
		sc.insertCalls = 0
		for _, op := range sc.invOps {
			e.inv.apply(op)
		}
		sc.invOps = sc.invOps[:0]
		all = append(all, sc.matches...)
		sc.matches = sc.matches[:0]
	}
	slices.SortFunc(all, compareMatches)
	for _, m := range all {
		e.stats.Results++
		e.sink.OnMatch(m)
	}
	p.merged = all[:0]
}

// compareMatches orders matches by (From, To, TS).
func compareMatches(a, b Match) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.TS, b.TS))
}

var _ Engine = (*ParallelRAPQ)(nil)
